package events

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// take dequeues one event through a one-slot batch.
func take(q *Queue) (Event, bool) {
	var one [1]Event
	_, ok := q.TakeBatch(one[:])
	return one[0], ok
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(8, false)
	for i := 0; i < 5; i++ {
		q.Post(Event{Offset: int64(i)})
	}
	for i := 0; i < 5; i++ {
		ev, ok := take(q)
		if !ok || ev.Offset != int64(i) {
			t.Fatalf("take %d = %+v %v", i, ev, ok)
		}
	}
}

func TestQueueWrapsAround(t *testing.T) {
	q := NewQueue(4, false)
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			q.Post(Event{Offset: int64(round*4 + i)})
		}
		for i := 0; i < 4; i++ {
			ev, _ := take(q)
			if ev.Offset != int64(round*4+i) {
				t.Fatalf("round %d idx %d: got %d", round, i, ev.Offset)
			}
		}
	}
}

func TestQueueBlockingBackpressure(t *testing.T) {
	q := NewQueue(1, false)
	q.Post(Event{Offset: 1})
	done := make(chan struct{})
	go func() {
		q.Post(Event{Offset: 2}) // blocks until a take
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Post should have blocked on full queue")
	case <-time.After(20 * time.Millisecond):
	}
	take(q)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Post did not unblock")
	}
}

func TestQueueDropPolicy(t *testing.T) {
	q := NewQueue(2, true)
	if !q.Post(Event{}) || !q.Post(Event{}) {
		t.Fatal("first two posts must succeed")
	}
	if q.Post(Event{}) {
		t.Fatal("third post must be dropped")
	}
	posted, dropped := q.Stats()
	if posted != 2 || dropped != 1 {
		t.Fatalf("stats = %d posted %d dropped, want 2/1", posted, dropped)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue(4, false)
	q.Post(Event{Offset: 7})
	q.Close()
	if ok := q.Post(Event{}); ok {
		t.Fatal("post after close must fail")
	}
	ev, ok := take(q)
	if !ok || ev.Offset != 7 {
		t.Fatal("pending event must still drain after close")
	}
	if _, ok := take(q); ok {
		t.Fatal("drained closed queue must report !ok")
	}
}

func TestQueueCloseUnblocksConsumers(t *testing.T) {
	q := NewQueue(4, false)
	done := make(chan bool)
	go func() {
		_, ok := take(q)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("a take on a closed empty queue must report !ok")
		}
	case <-time.After(time.Second):
		t.Fatal("a take did not unblock on close")
	}
}

func TestQueueTakeBatch(t *testing.T) {
	q := NewQueue(16, false)
	for i := 0; i < 10; i++ {
		q.Post(Event{Offset: int64(i)})
	}
	buf := make([]Event, 4)
	n, ok := q.TakeBatch(buf)
	if !ok || n != 4 {
		t.Fatalf("TakeBatch = %d %v, want 4 true", n, ok)
	}
	for i := 0; i < 4; i++ {
		if buf[i].Offset != int64(i) {
			t.Fatalf("batch order wrong at %d: %d", i, buf[i].Offset)
		}
	}
	if q.Len() != 6 {
		t.Fatalf("Len after batch = %d, want 6", q.Len())
	}
}

func TestQueueTakeBatchEmptyDst(t *testing.T) {
	q := NewQueue(4, false)
	n, ok := q.TakeBatch(nil)
	if n != 0 || !ok {
		t.Fatalf("TakeBatch(nil) = %d %v, want 0 true", n, ok)
	}
}

// TestQueueConcurrentProducersConsumers drains one ring with 4 consumers at
// once, one event at a time and in batches. The batch case is the wake rule
// under several drainers: each wakes only as many blocked producers as it
// freed slots, so over 200 rounds of 16 producers on a 2-slot ring a
// producer left asleep beside a free slot shows as a round that never ends.
func TestQueueConcurrentProducersConsumers(t *testing.T) {
	for _, c := range []struct {
		name                                     string
		capacity, producers, perProducer, rounds int
		batch                                    int
	}{
		{"take", 32, 8, 500, 1, 1},
		{"take-batch", 2, 16, 8, 200, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			for round := 0; round < c.rounds; round++ {
				q := NewQueue(c.capacity, false)
				var wg, cwg sync.WaitGroup
				for p := 0; p < c.producers; p++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < c.perProducer; i++ {
							q.Post(Event{Op: OpRead})
						}
					}()
				}
				var consumed atomic.Int64
				for d := 0; d < 4; d++ {
					cwg.Add(1)
					go func() {
						defer cwg.Done()
						buf := make([]Event, c.batch)
						for {
							n, ok := q.TakeBatch(buf)
							if !ok {
								return
							}
							consumed.Add(int64(n))
						}
					}()
				}
				produced := make(chan struct{})
				go func() { wg.Wait(); close(produced) }()
				select {
				case <-produced:
				case <-time.After(10 * time.Second):
					t.Fatalf("round %d: a producer is still blocked with %d of %d events consumed",
						round, consumed.Load(), c.producers*c.perProducer)
				}
				q.Close()
				cwg.Wait()
				if got := consumed.Load(); got != int64(c.producers*c.perProducer) {
					t.Fatalf("round %d: consumed %d, want %d", round, got, c.producers*c.perProducer)
				}
			}
		})
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("Op.String mismatch")
	}
	if Op(0).String() == "" || Op(200).String() == "" {
		t.Fatal("unknown op must still stringify")
	}
}
