package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sample is one completed op: when it ended, in µs after the window
// opened, and how long the caller was blocked in it, in ns. Eight bytes, so
// that three million samples of a run do not show in rss_mb; a wait beyond
// 4.29 s is recorded as 4.29 s.
type sample struct{ endUS, lat uint32 }

// end returns the op's end in ns after the window opened.
func (s sample) end() int64 { return int64(s.endUS) * 1e3 }

// chunkSamples sizes a recorder chunk (512 KiB): memory grows with the ops
// actually done, and a chunk is allocated about once per 65k ops, so the
// allocation does not show in the latencies.
const chunkSamples = 1 << 16

// recorder collects one generator goroutine's samples without locks. The
// window reads it only after the goroutine has returned.
type recorder struct {
	open   time.Time
	chunks [][]sample
	n      int
	failed int64
	// children are the sub-spans of ops (traced runs only); the op spans
	// themselves are rebuilt from the samples when the trace is written.
	children []span
	traced   bool
}

// add records an op that ran from start to end and returns its index, the
// op id spans refer to. A failed op keeps its sample: it still blocked the
// caller.
func (r *recorder) add(start, end time.Time, ok bool) int {
	n := len(r.chunks)
	if n == 0 || len(r.chunks[n-1]) == chunkSamples {
		r.chunks = append(r.chunks, make([]sample, 0, chunkSamples))
		n++
	}
	r.chunks[n-1] = append(r.chunks[n-1], sample{endUS: uint32(end.Sub(r.open) / time.Microsecond), lat: uint32(min(end.Sub(start), math.MaxUint32))})
	if !ok {
		r.failed++
	}
	r.n++
	return r.n - 1
}

// loop runs op in a closed loop until the deadline: the next op starts
// only when the previous one has returned.
func (r *recorder) loop(deadline time.Time, op func() bool) {
	for {
		start := time.Now()
		if !start.Before(deadline) {
			return
		}
		ok := op()
		r.add(start, time.Now(), ok)
	}
}

// percentile returns the nearest-rank q-quantile of sorted (ascending).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// slices is how many equal parts of the window a metric is computed over
// before the median of the parts is reported: one slow part (a GC cycle, a
// neighbour on the host) moves a mean but not this.
const slices = 5

// sliceOf says which of k equal slices of [0, span) the instant end is in.
func sliceOf(end, span int64, k int) int {
	if span <= 0 {
		return 0
	}
	i := int(end * int64(k) / span)
	if i >= k {
		i = k - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// usage is one reading of what the process has consumed.
type usage struct {
	at    time.Time
	cpu   time.Duration // user+system CPU since the process started
	rssMB float64       // resident set now
}

func readUsage() usage {
	u := usage{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	// /proc/self/statm: size resident shared ... in pages.
	if raw, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				u.rssMB = float64(pages*int64(os.Getpagesize())) / (1 << 20)
			}
		}
	}
	return u
}

// usageEvery is the sampler's period: 200 readings over a 10 s window.
const usageEvery = 50 * time.Millisecond

// sampler reads the process's usage every usageEvery while a window runs,
// so that CPU can be attributed to slices of the window and the resident
// set reported as a median, not as the one highest reading of a GC sawtooth.
type sampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	reads  []usage
}

func startSampler() *sampler {
	s := &sampler{stopCh: make(chan struct{}), reads: []usage{readUsage()}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(usageEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
				s.reads = append(s.reads, readUsage())
			}
		}
	}()
	return s
}

func (s *sampler) stop() []usage {
	close(s.stopCh)
	s.wg.Wait()
	return append(s.reads, readUsage())
}

// cpuAt interpolates the process's CPU time at t from the readings, which
// are in time order.
func cpuAt(reads []usage, t time.Time) time.Duration {
	i := sort.Search(len(reads), func(i int) bool { return !reads[i].at.Before(t) })
	switch {
	case len(reads) == 0:
		return 0
	case i == 0:
		return reads[0].cpu
	case i == len(reads):
		return reads[len(reads)-1].cpu
	}
	a, b := reads[i-1], reads[i]
	share := float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
	return a.cpu + time.Duration(share*float64(b.cpu-a.cpu))
}

// driveBudget bounds one timeEach: a call that turns out slow on some
// workload (a PFS miss where another workload hits a tier) gets fewer
// rounds instead of stretching the run.
const driveBudget = 250 * time.Millisecond

// timeEach calls fn up to n times, stopping early (but not before 20
// calls) once driveBudget is spent, and returns the median duration of one
// call in ns. For calls of a microsecond or more.
func timeEach(n int, fn func(i int)) float64 {
	d := make([]int64, 0, n)
	begin := time.Now()
	for i := 0; i < n && (i < 20 || time.Since(begin) < driveBudget); i++ {
		t := time.Now()
		fn(i)
		d = append(d, int64(time.Since(t)))
	}
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
	return float64(percentile(d, 0.5))
}

// timeBatched times batches of per calls and returns the median ns per
// call, for calls too short to time one by one against the clock's own
// cost.
func timeBatched(batches, per int, fn func(i int)) float64 {
	d := make([]float64, batches)
	i := 0
	for b := range d {
		t := time.Now()
		for k := 0; k < per; k++ {
			fn(i)
			i++
		}
		d[b] = float64(time.Since(t)) / float64(per)
	}
	return median(d)
}
