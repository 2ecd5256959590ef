package telemetry

// ring is a fixed-size buffer that overwrites its oldest entry: the
// lifecycle flight recorder, its effectiveness window and the access
// log are each one. Not safe for concurrent use; the owner locks.
type ring[T any] struct {
	buf  []T
	next int
	full bool
}

func newRing[T any](size int) ring[T] { return ring[T]{buf: make([]T, max(size, 1))} }

// push stores v and returns the entry it overwrote, if any.
func (r *ring[T]) push(v T) (old T, evicted bool) {
	old, evicted = r.buf[r.next], r.full
	r.buf[r.next] = v
	if r.next++; r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	return old, evicted
}

// len returns the number of entries held.
func (r *ring[T]) len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// held copies the entries held, oldest first unless newestFirst.
func (r *ring[T]) held(newestFirst bool) []T {
	out := make([]T, r.len())
	start := 0
	if r.full {
		start = r.next
	}
	for i := range out {
		j := i
		if newestFirst {
			j = len(out) - 1 - i
		}
		out[j] = r.buf[(start+i)%len(r.buf)]
	}
	return out
}
