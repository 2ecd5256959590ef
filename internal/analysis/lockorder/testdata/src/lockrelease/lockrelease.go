// Package lockrelease exercises lockorder's exit rule: every lock a
// function takes is released on every path out of it. It runs under an
// empty manifest, so no chain rule applies here.
package lockrelease

import "sync"

type Q struct {
	mu sync.RWMutex
	n  int
}

func (q *Q) leak() {
	q.mu.Lock() // want `q\.mu locked with no Unlock anywhere in leak`
	q.n++
}

func (q *Q) badRead() int {
	q.mu.RLock() // want `q\.mu locked with no RUnlock anywhere in badRead`
	defer q.mu.Unlock()
	return q.n
}

func (q *Q) good() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.n++
}

func (q *Q) goodRead() int {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return q.n
}

func (q *Q) earlyReturn(b bool) {
	q.mu.Lock()
	if b {
		q.mu.Unlock()
		return
	}
	q.mu.Unlock()
}

// earlyLeak releases on the fall-through path only: the CFG path check
// catches the early return the anywhere-count misses.
func (q *Q) earlyLeak(b bool) int {
	q.mu.Lock() // want `q\.mu locked but not released on every path out of earlyLeak`
	if b {
		return -1
	}
	q.n++
	q.mu.Unlock()
	return q.n
}

// switchLeak misses the release in one case arm.
func (q *Q) switchLeak(mode int) {
	q.mu.Lock() // want `q\.mu locked but not released on every path out of switchLeak`
	switch mode {
	case 0:
		q.mu.Unlock()
	case 1:
		q.n++
		q.mu.Unlock()
	default:
		q.n-- // leaks
	}
}

// litRelease hands the unlock to a deferred literal; keys released
// inside nested literals are exempt from the path check.
func (q *Q) litRelease() {
	q.mu.Lock()
	defer func() { q.mu.Unlock() }()
	q.n++
}

// loopPaired locks and releases within each iteration; the loop
// back-edge must not accumulate held state.
func (q *Q) loopPaired(xs []int) {
	for range xs {
		q.mu.Lock()
		q.n++
		q.mu.Unlock()
	}
}

// handoff returns holding the lock by design.
func (q *Q) handoff() func() {
	//lint:allow lockorder lock ownership transfers to the returned closure
	q.mu.Lock()
	return q.mu.Unlock
}

type shardSet struct {
	shards []Q
}

// indexed paths normalize, so lock on [i] pairs with unlock on [j].
func (s *shardSet) sweep(i, j int) {
	s.shards[i].mu.Lock()
	s.shards[j].mu.Unlock()
}
