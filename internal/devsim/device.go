// Package devsim models the performance of storage and memory devices.
//
// The repository reproduces experiments that were originally run on real
// hardware (RAM, node-local NVMe, shared burst buffers, and a remote
// parallel file system). devsim substitutes those devices with performance
// models: every operation against a Device is charged a service time
// derived from the device's latency and bandwidth, and concurrent
// operations contend for the device's channels exactly as they would on
// real hardware.
//
// The model is a virtual-clock queue anchored to wall time. Each device
// channel keeps a "next free" timestamp; an operation picks the channel
// that lets it start earliest, computes its completion time as
//
//	start = max(now, channelFree)
//	end   = start + latency + size/bandwidth
//
// advances the channel's free time to end, and waits for end.
//
// # How Access waits
//
// The wait is one mechanism (clock.go), the same for every caller: the
// caller parks on the package's clock, which keeps parked callers in a
// deadline heap and is woken for the earliest of them by two timers at
// once. A kernel timer (a timerfd read through the runtime's poller, on
// Linux) is exact while the process idles, which is when a runtime timer
// is up to a millisecond late, because the last thread to go idle sleeps
// in a poll whose timeout is rounded up to whole milliseconds; a runtime
// timer is exact while the processors are busy, which is when the poller
// is only looked at every 10 ms. Whichever fires first releases every
// caller that is due. A parked caller burns no CPU, a wait allocates
// nothing, and an operation that costs nothing (a free device) returns
// before touching any of it. The standard library's sleep, which alone
// costs a tier hit a millisecond in an idle process, is not used.
//
// # The error, and where it goes
//
// What is left is the host's own latency between a timer expiring and a
// goroutine running: tens of microseconds, more after a longer sleep.
// Access measures it and feeds it back in two places, each bounded by
// maxSlip so that a loaded host's scheduling delay stays in the
// measurement and is not mistaken for the clock's error:
//
//   - Lead. A device aims its waits early by the lateness with which the
//     clock has been releasing them (its median, tracked a microsecond at
//     a time), so a release lands on end, give or take the host's jitter,
//     and about half land a few microseconds before it. A wait no longer
//     than the lead is not worth parking for and returns at once. Either
//     way the caller is back early, and nothing is lost: the channel's
//     free time has advanced by the full service time, so the remainder
//     is debt that the next operation on the channel waits out. Many
//     cheap operations issued back to back therefore still serialize into
//     real elapsed time; the debt surfaces as a real wait a few operations
//     later, and the error is bounded per burst, not per operation.
//
//   - Credit. When a caller is back late and nothing has queued behind it,
//     the channel remembers by how much, and dates its next operation that
//     much before its arrival: a caller in a closed loop issued it late
//     only because it was released late. Lateness is thus paid back one
//     operation later instead of adding up, and a run of back-to-back
//     operations takes the sum of their costs.
//
// Stats reports the modeled time and Waited the wall time it took, so the
// two can be compared wherever the package runs.
package devsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Profile describes the raw performance characteristics of a device.
type Profile struct {
	// Name identifies the device in metrics and logs.
	Name string
	// Latency is the fixed per-operation service time.
	Latency time.Duration
	// BytesPerSec is the sustained bandwidth of one channel.
	BytesPerSec float64
	// Channels is the number of independent service channels
	// (e.g. NVMe queue pairs, PFS storage servers). Zero means one.
	Channels int
}

// maxSlip bounds both corrections of a release's timing (see the package
// doc): on an idle host the error is well below it; past it, the lateness
// is scheduling load, which belongs in the measurement.
const maxSlip = int64(200 * time.Microsecond)

// leadStep is how far one parked wait moves a device's lead.
const leadStep = int64(time.Microsecond)

// channel is one service channel of a device.
type channel struct {
	free int64 // mono() time its last accepted operation completes
	late int64 // how long after free that operation's caller was back; consumed by the next
}

// Device is a shared, concurrency-safe performance model instance.
type Device struct {
	prof  Profile
	scale float64

	mu    sync.Mutex
	chans []channel
	lead  int64 // how early waits are aimed, in nanoseconds

	ops            atomic.Int64
	bytes          atomic.Int64
	busyNanos      atomic.Int64
	blockedNanos   atomic.Int64
	overshootNanos atomic.Int64
}

// New creates a Device from a profile. The scale factor multiplies all
// modeled service times; scale < 1 speeds experiments up proportionally
// on every device so relative results are preserved.
func New(prof Profile, scale float64) *Device {
	if prof.Channels <= 0 {
		prof.Channels = 1
	}
	if scale <= 0 {
		scale = 1
	}
	return &Device{
		prof:  prof,
		scale: scale,
		chans: make([]channel, prof.Channels),
	}
}

// Name returns the device name.
func (d *Device) Name() string { return d.prof.Name }

// Profile returns the device's performance profile.
func (d *Device) Profile() Profile { return d.prof }

// Cost returns the modeled service time of a single operation moving
// size bytes, after scaling. It does not account for queueing.
func (d *Device) Cost(size int64) time.Duration {
	c := float64(d.prof.Latency)
	if d.prof.BytesPerSec > 0 && size > 0 {
		c += float64(size) / d.prof.BytesPerSec * float64(time.Second)
	}
	return time.Duration(c * d.scale)
}

// Access charges one operation of size bytes against the device and
// blocks until its modeled completion time, as closely as the package doc
// describes. It returns the service time (excluding queueing delay) that
// was charged.
func (d *Device) Access(size int64) time.Duration {
	cost := d.Cost(size)
	now := mono()

	d.mu.Lock()
	// Pick the channel the operation can start on earliest.
	var ch *channel
	var start int64
	for i := range d.chans {
		c := &d.chans[i]
		if s := max(c.free, now-c.late); ch == nil || s < start {
			ch, start = c, s
		}
	}
	end := start + int64(cost)
	// An operation dated before its arrival that is over by now has not
	// used its credit up: the rest passes to the next.
	ch.free, ch.late = end, max(now-end, 0)
	lead := d.lead
	d.mu.Unlock()

	d.ops.Add(1)
	d.bytes.Add(size)
	d.busyNanos.Add(int64(cost))

	if end-now <= lead {
		return cost // nothing to wait for, or too little to park for
	}
	released := theClock.sleepUntil(end - lead)

	d.mu.Lock()
	switch {
	case released > end:
		d.lead = min(d.lead+leadStep, maxSlip)
	case released < end:
		d.lead = max(d.lead-leadStep, 0)
	}
	// Read as late as can be: what the caller does from here until its
	// next operation arrives is its own time, and the device idles for it.
	woke := mono()
	if woke > end && ch.free == end {
		ch.late = min(woke-end, maxSlip)
	}
	d.mu.Unlock()

	d.blockedNanos.Add(woke - now)
	if woke > end {
		d.overshootNanos.Add(woke - end)
	}
	return cost
}

// Stats reports cumulative operation count, bytes moved and modeled busy
// time since the device was created.
func (d *Device) Stats() (ops, bytes int64, busy time.Duration) {
	return d.ops.Load(), d.bytes.Load(), time.Duration(d.busyNanos.Load())
}

// Waited reports what the modeled time cost in wall time: blocked is the
// time callers spent in Access calls that parked, overshoot the part of it
// past their modeled completion. Against Stats' busy, blocked adds
// queueing delay and overshoot and leaves out the operations too short to
// park for; overshoot is the host's error, not the model's.
func (d *Device) Waited() (blocked, overshoot time.Duration) {
	return time.Duration(d.blockedNanos.Load()), time.Duration(d.overshootNanos.Load())
}

// ResetStats zeroes the cumulative counters.
func (d *Device) ResetStats() {
	d.ops.Store(0)
	d.bytes.Store(0)
	d.busyNanos.Store(0)
	d.blockedNanos.Store(0)
	d.overshootNanos.Store(0)
}

func (d *Device) String() string {
	return fmt.Sprintf("devsim.Device(%s lat=%v bw=%.0fMB/s ch=%d)",
		d.prof.Name, d.prof.Latency, d.prof.BytesPerSec/1e6, d.prof.Channels)
}
