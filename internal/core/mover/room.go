package mover

import (
	"errors"
	"slices"
	"time"

	"hfetch/internal/tiers"
)

// How a fill waits for room, in one place. A tier's room is made by what
// leaves it, so the mover counts, per tier, the records that have yet to
// leave (Mover.leaving: queued or running hops out of the tier, and the
// departures of a batch being submitted). A fill refused by a full tier
// while that count is not zero is parked with its payload in hand; the
// tier's next release (RoomMade, left at the store's door by the refused
// Land) or the count reaching zero puts it back at the head of the tier's
// queue, to land or — nothing it could wait for being left — to give up.
// Workers never wait: every departure runs, so every wait ends.

// enqueueLocked queues r for the hop r.mv; a hop that has yet to leave a
// tier is counted as one of that tier's departures.
func (m *Mover) enqueueLocked(r *rec) {
	r.state = recQueued
	r.submitted = time.Now()
	if r.buf == nil && r.mv.From >= 0 {
		r.leaving = true
		m.leaving[r.mv.From]++
	}
	m.queues[qFor(r.mv)] = append(m.queues[qFor(r.mv)], r)
	m.cond.Broadcast()
}

// departedLocked records that r has left r.mv.From, or never will.
func (m *Mover) departedLocked(r *rec) {
	if r.leaving {
		r.leaving = false
		m.leftLocked(r.mv.From)
	}
}

// leftLocked takes one departure off tier ti's count. After the last one
// known, the fills parked there are woken to try once more and give up.
func (m *Mover) leftLocked(ti int) {
	if m.leaving[ti]--; m.leaving[ti] == 0 {
		m.wakeLocked(ti)
	}
}

// onwardLocked keeps a running r counted among the departures of the tier
// its hop lands in for as long as it will not stay there — wanted elsewhere,
// it goes again; cancelled, it is undone — so that a fill of that tier may
// wait for it. stayLocked ends it.
func (m *Mover) onwardLocked(r *rec) {
	if r.mv.To < 0 || !r.cancelled && r.want == r.mv.To {
		m.stayLocked(r, r.mv.To)
	} else if !r.onward {
		r.onward = true
		m.leaving[r.mv.To]++
	}
}

func (m *Mover) stayLocked(r *rec, ti int) {
	if r.onward {
		r.onward = false
		m.leftLocked(ti)
	}
}

// wakeLocked puts the fills parked at tier ti back at the head of its
// queue.
func (m *Mover) wakeLocked(ti int) {
	w := m.waiting[ti]
	if len(w) == 0 {
		return
	}
	for _, r := range w {
		r.state = recQueued
	}
	m.queues[ti] = slices.Insert(m.queues[ti], 0, w...)
	clear(w)
	m.waiting[ti] = w[:0]
	m.cond.Broadcast()
}

// RoomMade implements tiers.RoomWaiter: a release made room in tier s,
// where a refused Land left the mover at the door.
func (m *Mover) RoomMade(s *tiers.Store) {
	m.roomGen.Add(1)
	m.mu.Lock()
	m.wakeLocked(slices.Index(m.hier.Stores(), s))
	m.mu.Unlock()
}

// land installs the payload r has in hand where its hop takes it, or parks
// r until that tier's next release; the calling worker owns r. A payload
// that can land nowhere goes back to the tier it left or — that tier
// refilled meanwhile, or it came from the origin — is dropped: an eviction
// the caller finds when it reconciles the failed hop against the stores.
func (m *Mover) land(r *rec) {
	for {
		to := r.mv.To
		if to < 0 { // re-placed out of the hierarchy while in hand
			r.buf.Release()
			r.buf = nil
			m.complete(r, nil)
			return
		}
		var from *tiers.Store
		if r.mv.From >= 0 {
			from = m.hier.Tier(r.mv.From)
		}
		gen := m.roomGen.Load()
		err := m.carrier.Land(r.mv.ID, r.buf, from, m.hier.Tier(to), m)
		if err == nil {
			r.buf = nil
			m.complete(r, nil)
			return
		}
		m.mu.Lock()
		cancelled := r.cancelled
		giveUp := cancelled || m.closed || !errors.Is(err, tiers.ErrNoSpace)
		switch {
		case giveUp:
		case r.want != to: // re-placed while in hand: land there instead
			m.stayLocked(r, to)
			r.mv.To = r.want
		case m.roomGen.Load() != gen:
			// Room was made since the refusal: try again, whatever has
			// left the tier since.
		case m.leaving[to] == 0:
			giveUp = true
		default:
			r.state = recWaiting
			m.running--
			m.waiting[to] = append(m.waiting[to], r)
			m.checkLocked()
			m.mu.Unlock()
			return
		}
		m.mu.Unlock()
		if giveUp {
			if cancelled || from == nil || from.PutBuf(r.mv.ID, r.buf) != nil {
				r.buf.Release()
			}
			r.buf = nil
			m.complete(r, err)
			return
		}
	}
}
