// Package goleakclean is the goleak negative fixture: every spawning
// type declares a quiesce method and every spawned loop observes a stop
// signal.
package goleakclean

import "sync"

type Worker struct {
	done chan struct{}
	in   chan []byte
	out  chan []byte
	wg   sync.WaitGroup
}

func NewWorker() *Worker {
	w := &Worker{
		done: make(chan struct{}),
		in:   make(chan []byte),
		out:  make(chan []byte),
	}
	w.wg.Add(2)
	go w.pump()
	go func() {
		defer w.wg.Done()
		for {
			select {
			case <-w.done:
				return
			case b := <-w.in:
				w.out <- b
			}
		}
	}()
	return w
}

func (w *Worker) pump() {
	defer w.wg.Done()
	for {
		select {
		case <-w.done:
			return
		case b := <-w.in:
			_ = b
		}
	}
}

func (w *Worker) Stop() {
	close(w.done)
	w.wg.Wait()
}

// Batch runs bounded work only; no observation needed.
type Batch struct {
	done chan struct{}
}

func (b *Batch) Stop() { close(b.done) }

func (b *Batch) Run(items []int) {
	go func() {
		for _, it := range items {
			_ = it
		}
	}()
}

// Cache pairs its Start spawn with a Stop.
type Cache struct {
	quit chan struct{}
}

func NewCache() *Cache {
	return &Cache{quit: make(chan struct{})}
}

func (c *Cache) Start() {
	go c.loop()
}

func (c *Cache) loop() {
	<-c.quit
}

func (c *Cache) Stop() { close(c.quit) }
