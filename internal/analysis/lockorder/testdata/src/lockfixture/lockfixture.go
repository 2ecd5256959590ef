// Package lockfixture exercises the lockorder analyzer: the test
// manifest ranks Ring < Shard < Engine.runMu < Engine.mu < Store, marks
// Ring as released-between and treats IO.Write as an I/O barrier. The
// exit rule's own cases are in the lockrelease fixture.
package lockfixture

import "sync"

type Ring struct{ mu sync.Mutex }

type Shard struct{ mu sync.RWMutex }

type Engine struct {
	runMu sync.Mutex
	mu    sync.Mutex
}

type Store struct{ mu sync.Mutex }

type IO interface{ Write() error }

// outOfOrder takes a later lock first.
func outOfOrder(st *Store, e *Engine) {
	st.mu.Lock()
	e.mu.Lock() // want `acquires engine-mu lock while holding store lock`
	e.mu.Unlock()
	st.mu.Unlock()
}

// doubleRing takes two locks of the same class.
func doubleRing(a, b *Ring) {
	a.mu.Lock()
	b.mu.Lock() // want `acquires a second ring lock`
	b.mu.Unlock()
	a.mu.Unlock()
}

// ringNotReleased holds the released-between ring across a shard
// acquisition, even though shard is later in the chain.
func ringNotReleased(r *Ring, s *Shard) {
	r.mu.Lock()
	s.mu.Lock() // want `ring lock must be released before taking any later lock`
	s.mu.Unlock()
	r.mu.Unlock()
}

// heldAcrossIO performs device I/O under the store lock.
func heldAcrossIO(st *Store, io IO) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return io.Write() // want `store lock held across I/O call`
}

// reachesIO holds a lock across a helper that transitively does I/O.
func reachesIO(e *Engine, io IO) {
	e.mu.Lock()
	helper(io) // want `engine-mu lock held across call to helper, which reaches I/O`
	e.mu.Unlock()
}

func helper(io IO) {
	io.Write()
}

// passAcrossIO holds the pass-serialization lock across I/O: no lock of
// the chain is exempt from the barrier rule.
func passAcrossIO(e *Engine, io IO) error {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	return io.Write() // want `engine-run lock held across I/O call`
}

// unlockThenReturn releases on the early-exit branch; the fall-through
// path still holds the lock legitimately.
func unlockThenReturn(r *Ring, s *Shard, empty bool) {
	r.mu.Lock()
	if empty {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	s.mu.Lock()
	s.mu.Unlock()
}

// goroutineStartsFresh: locks held by the spawner are not held by the
// goroutine it spawns.
func goroutineStartsFresh(st *Store, e *Engine) {
	st.mu.Lock()
	go func() {
		e.mu.Lock()
		e.mu.Unlock()
	}()
	st.mu.Unlock()
}

// allowed is the same violation as outOfOrder but deliberately waived.
func allowed(st *Store, e *Engine) {
	st.mu.Lock()
	//lint:allow lockorder fixture demonstrates a waived ordering violation
	e.mu.Lock()
	e.mu.Unlock()
	st.mu.Unlock()
}

// releasedOnOneArm: one fact serves both rule sets. After the join the
// ring lock is held on one path only, so taking the shard lock is no
// ordering finding; the exit rule still sees the path that kept it.
func releasedOnOneArm(r *Ring, s *Shard, done bool) {
	r.mu.Lock() // want `r\.mu locked but not released on every path out of releasedOnOneArm`
	if done {
		r.mu.Unlock()
	}
	s.mu.Lock()
	s.mu.Unlock()
}
