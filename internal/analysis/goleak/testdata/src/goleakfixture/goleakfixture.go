// Package goleakfixture exercises the goleak analyzer: a type whose
// constructor or Start spawns a goroutine needs a quiesce method, and
// goroutines spawned by long-lived types must observe a stop signal the
// quiesce method triggers.
package goleakfixture

import (
	"context"
	"sync"
)

// Pump closes done from Stop; loops must select on it.
type Pump struct {
	done chan struct{}
	ch   chan int
	jobs chan int
	wg   sync.WaitGroup
}

func (p *Pump) Stop() {
	close(p.done)
	p.wg.Wait()
}

// StartGood observes the done channel: joinable.
func (p *Pump) StartGood() {
	go func() {
		for {
			select {
			case <-p.done:
				return
			case v := <-p.ch:
				_ = v
			}
		}
	}()
}

// StartBad loops on the data channel only; Stop can never reach it.
func (p *Pump) StartBad() {
	go func() { // want `goroutine spawned here cannot be joined: its loop \(at .*\) never observes a stop signal that goleakfixture\.Pump\.Stop triggers`
		for {
			v := <-p.ch
			_ = v
		}
	}()
}

// StartMethod spawns a named method whose loop observes: joinable.
func (p *Pump) StartMethod() {
	go p.loop()
}

func (p *Pump) loop() {
	for {
		select {
		case <-p.done:
			return
		case v := <-p.ch:
			_ = v
		}
	}
}

// StartMethodBad spawns a named method that never observes.
func (p *Pump) StartMethodBad() {
	go p.spin() // want `goroutine spawned here cannot be joined: its loop \(at .*\) never observes a stop signal that goleakfixture\.Pump\.Stop triggers`
}

func (p *Pump) spin() {
	for {
		v := <-p.ch
		_ = v
	}
}

// StartHelper observes through a same-package helper: joinable.
func (p *Pump) StartHelper() {
	go func() {
		for {
			if p.waitTick() {
				return
			}
		}
	}()
}

func (p *Pump) waitTick() bool {
	select {
	case <-p.done:
		return true
	case v := <-p.ch:
		_ = v
		return false
	}
}

// StartBounded runs a self-terminating loop: exempt.
func (p *Pump) StartBounded(n int) {
	go func() {
		for i := 0; i < n; i++ {
			p.ch <- i
		}
	}()
}

// StartPool drains a local channel the spawner itself closes — the
// bounded worker-pool idiom, joined here rather than by Stop.
func (p *Pump) StartPool(items []int) {
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range ch {
				_ = v
			}
		}()
	}
	for _, it := range items {
		ch <- it
	}
	close(ch)
	wg.Wait()
}

// StartRangeJobs ranges over a channel nobody closes: unjoinable.
func (p *Pump) StartRangeJobs() {
	go func() { // want `goroutine spawned here cannot be joined: its loop \(at .*\) never observes a stop signal that goleakfixture\.Pump\.Stop triggers`
		for v := range p.jobs {
			_ = v
		}
	}()
}

// Ranger's Stop closes the channel its goroutine ranges over.
type Ranger struct {
	ch chan int
}

func (r *Ranger) Stop() { close(r.ch) }

func (r *Ranger) Start() {
	go func() {
		for v := range r.ch {
			_ = v
		}
	}()
}

// Ctx cancels a context from Stop; loops on <-ctx.Done() are joinable.
type Ctx struct {
	ctx    context.Context
	cancel context.CancelFunc
	ch     chan int
}

func NewCtx() *Ctx {
	c := &Ctx{ch: make(chan int)}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	go func() {
		for {
			select {
			case <-c.ctx.Done():
				return
			case v := <-c.ch:
				_ = v
			}
		}
	}()
	return c
}

func (c *Ctx) Stop() { c.cancel() }

// CtxBad cancels but its goroutine never watches the context.
type CtxBad struct {
	cancel context.CancelFunc
	ch     chan int
}

func (c *CtxBad) Start() {
	go func() { // want `goroutine spawned here cannot be joined: its loop \(at .*\) never observes a stop signal that goleakfixture\.CtxBad\.Stop triggers`
		for {
			v := <-c.ch
			_ = v
		}
	}()
}

func (c *CtxBad) Stop() { c.cancel() }

// Quiet's Stop triggers nothing observable: declaring it is what the
// lifecycle rule asks, and with no signal to observe goleak stays silent
// about the loop.
type Quiet struct{ n int }

func (q *Quiet) Stop() { q.n = 0 }

func (q *Quiet) Start() {
	go func() {
		for {
			q.n++
		}
	}()
}

// Leaky spawns a background loop but has no quiesce method.
type Leaky struct{ ch chan int }

func NewLeaky() *Leaky {
	l := &Leaky{ch: make(chan int)}
	go func() { // want `Leaky spawns a goroutine in NewLeaky but declares no Stop/Close/Drain/Shutdown method`
		for range l.ch {
		}
	}()
	return l
}

// Worker pairs its Start spawn with a Stop method.
type Worker struct {
	quit chan struct{}
}

func (w *Worker) Start() {
	go func() {
		<-w.quit
	}()
}

func (w *Worker) Stop() { close(w.quit) }

// Plain never spawns: no lifecycle obligation.
type Plain struct{ n int }

func NewPlain() *Plain { return &Plain{} }
