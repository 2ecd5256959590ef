package mover

import (
	"cmp"
	"slices"
	"time"

	"hfetch/internal/telemetry"
	"hfetch/internal/tiers"
)

// The workers: one pool per tier, each worker taking the head of its tier's
// queue (or a share of a run of fetches), executing the hop, and completing
// it — reporting the outcome, then retiring the record or sending it on.

// group is what one worker is executing: one move, or a run of coalesced
// fetches in index order. A worker reuses its one group, callbacks
// included, so taking and executing allocates nothing.
type group struct {
	m     *Mover
	ops   []*rec
	sizes []int64
	taken time.Time // when the ops were taken (fetches only)
	// The worker's own method values, made once.
	fetched func()
	landed  func(i int, held *tiers.Buf, err error)
}

// onFetched gives the group's PFS stream back: its origin read returned.
func (g *group) onFetched() {
	<-g.m.pfsSem
	g.m.mu.Lock()
	g.m.fetching--
	g.m.mu.Unlock()
}

// onLanded completes segment i of the group. A segment written out of a
// shared origin read is counted before its record completes, so a Drain
// that returns has seen the count.
func (g *group) onLanded(i int, held *tiers.Buf, err error) {
	r := g.ops[i]
	if err == nil && len(g.ops) > 1 {
		g.m.ctr.coalesced.Add(1)
	}
	if held != nil && g.m.carrier != nil {
		r.buf = held
		g.m.land(r)
		return
	}
	if held != nil {
		held.Release()
	}
	g.m.complete(r, err)
}

func (m *Mover) worker(ti int) {
	defer m.wg.Done()
	g := &group{m: m}
	g.fetched, g.landed = g.onFetched, g.onLanded
	for {
		m.mu.Lock()
		for len(m.queues[ti]) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.queues[ti]) == 0 && m.closed {
			m.mu.Unlock()
			return
		}
		m.takeLocked(ti, g)
		m.space.Broadcast()
		m.mu.Unlock()
		m.execute(g)
	}
}

// takeLocked moves the head of tier ti's queue into g and marks it running
// — or, for a PFS fetch through a BatchFetcher, a share of the queued run
// the head belongs to (shareLocked), which may leave the head for a later
// take.
func (m *Mover) takeLocked(ti int, g *group) {
	q := m.queues[ti]
	g.ops = append(g.ops[:0], q[0])
	fetch := q[0].mv.From < 0 && q[0].buf == nil
	if fetch {
		g.taken = time.Now()
		if m.batch != nil && len(q) > 1 {
			g.ops = m.shareLocked(q, g.ops[:0])
		}
		m.fetching++
	}
	for _, r := range g.ops {
		r.state = recRunning
		if fetch {
			r.taken = g.taken
		}
	}
	m.running += len(g.ops)
	kept := q[:0]
	for _, r := range q {
		if r.state == recQueued {
			kept = append(kept, r)
		}
	}
	clear(q[len(kept):])
	m.queues[ti] = kept
}

// shareLocked picks, into ops, the fetches one worker takes out of queue
// q, whose head is a fetch: of the queued fetches of the head's file whose
// indices are contiguous with it, the lowest-indexed 1/idle, rounded up and
// bounded by maxCoalesceBytes, in index order — idle being the PFS streams
// no taken group has spoken for (at least this worker's). The rest stays
// queued for the other workers: a long run is read over every idle stream
// at once and lands in reader order.
func (m *Mover) shareLocked(q, ops []*rec) []*rec {
	head := q[0]
	for _, r := range q {
		if r.mv.From < 0 && r.buf == nil && r.mv.ID.File == head.mv.ID.File {
			ops = append(ops, r)
		}
	}
	slices.SortFunc(ops, func(a, b *rec) int { return cmp.Compare(a.mv.ID.Index, b.mv.ID.Index) })
	lo := slices.Index(ops, head)
	hi := lo + 1
	for lo > 0 && ops[lo-1].mv.ID.Index+1 == ops[lo].mv.ID.Index {
		lo--
	}
	for hi < len(ops) && ops[hi-1].mv.ID.Index+1 == ops[hi].mv.ID.Index {
		hi++
	}
	idle := max(1, m.cfg.PFSStreams-m.fetching)
	n := (hi - lo + idle - 1) / idle
	budget := maxCoalesceBytes - ops[lo].mv.Size
	for k := 1; k < n; k++ {
		if budget -= ops[lo+k].mv.Size; budget < 0 {
			n = k
		}
	}
	return ops[:copy(ops, ops[lo:lo+n])]
}

// execute runs one group on the calling worker; by the time it returns
// every record of it has completed its hop or is parked.
func (m *Mover) execute(g *group) {
	head := g.ops[0]
	if reg := m.cfg.Telemetry; reg != nil {
		// Queue wait per hop, once: a woken fill's next try has none.
		now := time.Now()
		for _, r := range g.ops {
			if !r.submitted.IsZero() {
				reg.Span(telemetry.StageMoverQueue, r.mv.ID.File, r.mv.ID.Index,
					m.hier.Tier(qFor(r.mv)).Name(), r.submitted, now.Sub(r.submitted))
				r.submitted = time.Time{}
			}
		}
	}
	mv := head.mv
	switch {
	case head.buf != nil: // payload in hand: woken, or re-placed while parked
		m.land(head)
	case mv.To < 0: // eviction
		m.complete(head, m.exec.Evict(mv.ID, m.hier.Tier(mv.From)))
	case mv.From < 0: // PFS fetch (possibly a coalesced group)
		// A batch executor hands the stream back (g.fetched) when its
		// origin read returns, before the tier writes.
		m.pfsSem <- struct{}{}
		if m.batch == nil {
			err := m.exec.Fetch(mv.ID, mv.Size, m.hier.Tier(mv.To))
			g.onFetched()
			m.complete(head, err)
		} else {
			g.sizes = g.sizes[:0]
			for _, r := range g.ops {
				g.sizes = append(g.sizes, r.mv.Size)
			}
			// Each record completes from g.landed as its segment is written.
			m.batch.FetchMany(mv.ID.File, mv.ID.Index, g.sizes, m.hier.Tier(mv.To), g.fetched, g.landed)
		}
		// Two workers finishing at once may drop one sample, not the mean.
		d := int64(time.Since(g.taken))
		if old := m.landTime.Load(); old != 0 {
			d = old + (d-old)/8
		}
		m.landTime.Store(d)
	case m.carrier == nil: // tier-to-tier transfer in one call
		m.complete(head, m.exec.Transfer(mv.ID, m.hier.Tier(mv.From), m.hier.Tier(mv.To)))
	default: // tier-to-tier transfer: leave the source first, then land
		b, err := m.carrier.Take(mv.ID, m.hier.Tier(mv.From))
		if err != nil {
			m.complete(head, err)
			return
		}
		head.buf = b
		m.mu.Lock()
		m.departedLocked(head)
		m.mu.Unlock()
		m.land(head)
	}
}

// complete ends the hop a worker ran for r: a cancelled move is undone, the
// outcome reported through done (outside the lock), and the record goes
// again — the engine re-placed the segment meanwhile — or is retired.
func (m *Mover) complete(r *rec, err error) {
	hop := r.mv
	m.mu.Lock()
	m.departedLocked(r)
	undo := -1
	if r.cancelled {
		// The hop materialized bytes of an invalidated file, or — giving up
		// as the file was cancelled — may have put them back: drop them
		// (the store charge stays — the device did the work).
		if undo = hop.From; err == nil {
			undo = hop.To
		}
		err = ErrCancelled
	}
	m.mu.Unlock()
	if undo >= 0 {
		m.hier.Tier(undo).Delete(hop.ID)
	}
	switch err {
	case nil:
		m.ctr.executed.Add(1)
	case ErrCancelled:
		m.ctr.cancel.Add(1)
	default:
		m.ctr.failed.Add(1)
	}
	// The caller's bookkeeping runs before the hop's waiters are released
	// and the record retired or queued again: Drain and WaitFor see the
	// move's effects, and a segment's hops are reported in order.
	m.done(hop, err)
	m.mu.Lock()
	m.running--
	m.stayLocked(r, hop.To) // going again, it counts for itself (enqueueLocked)
	at := hop.To            // where the bytes are, should the record go on
	if r.cancelled {
		// Undone, or swept by the canceller: nothing is cached. A tier
		// wanted since is a newer pass's, for the file as rewritten.
		at, r.cancelled, r.mv.Trace = -1, false, 0
	}
	if (err == nil || err == ErrCancelled) && !m.closed && r.want != at {
		if r.done != nil {
			close(r.done)
			r.done = nil
		}
		r.mv.From, r.mv.To = at, r.want
		m.enqueueLocked(r)
		m.checkLocked()
	} else {
		if r.want != at {
			// A newer intent took this hop's destination for its origin;
			// the hop failed, so abandon it: reconciliation heals the model.
			m.ctr.cancel.Add(1)
		}
		m.finishLocked(r)
	}
	m.mu.Unlock()
}
