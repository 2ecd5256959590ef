package devsim

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The upper bounds in this file hold where the kernel timer exists, in a
// process that does nothing else, on a host that leaves it a processor:
// go test runs other packages' tests beside this one. So a check that
// fails is run again, three failures in a row fail the test, and a run
// during which the rest of the host took more than a fifth of a processor
// is not counted; if the host never quiets down the test is skipped.
func attempt(t *testing.T, check func() error) {
	t.Helper()
	const window = 200 * time.Millisecond // /proc/stat counts in 10 ms ticks
	for failed, busy := 0, 0; ; {
		start, before := time.Now(), othersCPU(t)
		err := check()
		if err == nil {
			return
		}
		Sleep(window - time.Since(start))
		if others, el := othersCPU(t)-before, time.Since(start); others > el/5 {
			if busy++; busy == 30 {
				t.Skipf("the host stayed too busy to time anything; last: %v", err)
			}
			t.Logf("not counted, others had %v of CPU in %v: %v", others, el, err)
			Sleep(time.Second)
			continue
		}
		if failed++; failed == 3 {
			t.Fatal(err)
		}
		t.Logf("attempt %d: %v", failed, err)
	}
}

// othersCPU returns the CPU time the host has given to anything but this
// process: the busy columns of /proc/stat's first line, less our own.
func othersCPU(t *testing.T) time.Duration {
	t.Helper()
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		t.Skip(err)
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	var ticks int64
	for i, f := range strings.Fields(line) {
		// cpu user nice system idle iowait irq softirq steal ...
		if i == 0 || i == 4 || i == 5 {
			continue
		}
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			t.Skipf("/proc/stat: %q: %v", line, err)
		}
		ticks += n
	}
	return time.Duration(ticks)*10*time.Millisecond - cpuTime(t)
}

func median(s []time.Duration) time.Duration {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// within reports whether got is inside want ± tol×want.
func within(got, want time.Duration, tol float64) bool {
	d := float64(got - want)
	return d <= tol*float64(want) && -d <= tol*float64(want)
}

// Predicted against measured service time per tier: a 64 KiB access on
// each reference profile takes its modeled cost, and the tiers keep the
// ordering the reproduction rests on.
func TestProfilesMeasureAsModeled(t *testing.T) {
	const size, n = 64 << 10, 200
	attempt(t, func() error {
		var medians []time.Duration
		for _, p := range []Profile{RAMProfile, NVMeProfile, BurstBufferProfile, PFSProfile} {
			d := New(p, 1)
			lat := make([]time.Duration, n)
			for i := range lat {
				t0 := time.Now()
				d.Access(size)
				lat[i] = time.Since(t0)
			}
			cost, m := d.Cost(size), median(lat)
			slack := max(50*time.Microsecond, cost/10)
			_, _, busy := d.Stats()
			blocked, overshoot := d.Waited()
			t.Logf("%-4s modeled %v, median %v; busy %v, blocked %v, overshoot %v over %d accesses",
				p.Name, cost, m, busy, blocked, overshoot, n)
			if m > cost+slack {
				return fmt.Errorf("%s: median %v, modeled %v: more than %v over", p.Name, m, cost, slack)
			}
			if blocked > n*(cost+slack) {
				return fmt.Errorf("%s: blocked %v a wait, modeled %v: more than %v over", p.Name, blocked/n, cost, slack)
			}
			medians = append(medians, m)
		}
		for i := 1; i < len(medians); i++ {
			if medians[i] <= medians[i-1] {
				return fmt.Errorf("medians %v are not strictly ordered ram < nvme < bb < pfs", medians)
			}
		}
		if bb, pfs := medians[2], medians[3]; pfs < 5*bb {
			return fmt.Errorf("pfs median %v is under 5x bb's %v", pfs, bb)
		}
		return nil
	})
}

// Back-to-back operations on one channel take the sum of their costs,
// whether one cost is below what a wait can resolve (the debt of the
// operations that return at once surfaces in the ones that park) or
// above it (lateness is credited to the next operation, not added up).
func TestBackToBackTakesSumOfCosts(t *testing.T) {
	const n = 2000
	tol := 0.03
	if raceEnabled {
		// The detector's own microseconds after each wake-up are the
		// caller's time, not the device's, and a 5 µs cost shows them.
		tol = 0.15
	}
	for _, cost := range []time.Duration{5 * time.Microsecond, 200 * time.Microsecond} {
		attempt(t, func() error {
			d := New(Profile{Name: "x", Latency: cost, Channels: 1}, 1)
			start := time.Now()
			for i := 0; i < n; i++ {
				d.Access(0)
			}
			el := time.Since(start)
			blocked, overshoot := d.Waited()
			t.Logf("%d x %v: %v elapsed, %v blocked, %v overshoot", n, cost, el, blocked, overshoot)
			if !within(el, n*cost, tol) {
				return fmt.Errorf("%d operations of %v took %v, want %v ± %.0f%%", n, cost, el, n*cost, 100*tol)
			}
			if blocked > el {
				return fmt.Errorf("blocked %v exceeds the %v the run took", blocked, el)
			}
			return nil
		})
	}
}

func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// A herd of waiters queues on the channels and parks: it finishes when
// the model says and spends the time asleep, not spinning.
func TestConcurrentWaitersParkAndFinishOnTime(t *testing.T) {
	const waiters, channels, cost = 64, 4, 5 * time.Millisecond
	attempt(t, func() error {
		d := New(Profile{Name: "x", Latency: cost, Channels: channels}, 1)
		cpu0, start := cpuTime(t), time.Now()
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.Access(0)
			}()
		}
		wg.Wait()
		el, cpu := time.Since(start), cpuTime(t)-cpu0
		if want := waiters * cost / channels; !within(el, want, 0.05) {
			return fmt.Errorf("%d waiters on %d channels took %v, want %v ± 5%%", waiters, channels, el, want)
		}
		if limit := el * time.Duration(runtime.GOMAXPROCS(0)) / 4; cpu > limit {
			return fmt.Errorf("process used %v of CPU over %v, want under %v", cpu, el, limit)
		}
		return nil
	})
}

// While every processor is busy the poller that watches the kernel timer
// is only looked at every 10 ms; the runtime timer beside it keeps the
// wait exact.
func TestSleepIsExactWhileProcessorsAreBusy(t *testing.T) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2*runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)
	const d = 300 * time.Microsecond
	attempt(t, func() error {
		lat := make([]time.Duration, 100)
		for i := range lat {
			t0 := time.Now()
			Sleep(d)
			lat[i] = time.Since(t0)
		}
		if m := median(lat); m < d || m > d+2*time.Millisecond {
			return fmt.Errorf("median Sleep(%v) took %v on busy processors", d, m)
		}
		return nil
	})
}

func TestAccessDoesNotAllocate(t *testing.T) {
	free := New(Profile{Name: "free"}, 1)
	if n := testing.AllocsPerRun(1000, func() { free.Access(64 << 10) }); n != 0 {
		t.Errorf("Access at zero cost: %v allocations per run, want 0", n)
	}
	modeled := New(Profile{Name: "x", Latency: 100 * time.Microsecond}, 1)
	if n := testing.AllocsPerRun(200, func() { modeled.Access(0) }); n != 0 {
		t.Errorf("Access at a modeled cost: %v allocations per run, want 0", n)
	}
	if blocked, _ := modeled.Waited(); blocked == 0 {
		t.Error("Access at a modeled cost never parked")
	}
}
