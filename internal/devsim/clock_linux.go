package devsim

import (
	"os"
	"syscall"
	"unsafe"
)

const (
	clockMonotonic = 1       // CLOCK_MONOTONIC
	tfdNonblock    = 0x800   // TFD_NONBLOCK
	tfdCloexec     = 0x80000 // TFD_CLOEXEC
)

// kernelTimer is a timerfd whose expirations one goroutine waits for in
// the runtime's poller. An idle process's last thread sleeps there, and
// a descriptor turning readable wakes it at once, where a runtime timer
// only bounds its sleep in whole milliseconds. The kernel gives a timerfd
// no timer slack, so nothing is set per thread and no thread is held.
type kernelTimer struct {
	f  *os.File // parks its reader in the runtime's poller
	fd uintptr  // f's descriptor; File.Fd would put it in blocking mode
}

// start creates the timer and the goroutine that calls tick after each
// expiry. The goroutine is process-wide and permanent, like the clock.
// Without a descriptor to spare, arm does nothing and the clock's runtime
// timer is left to release every waiter, a millisecond late when idle.
func (k *kernelTimer) start(tick func()) {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return
	}
	k.fd, k.f = fd, os.NewFile(fd, "devsim-clock")
	// One per process, serving every device until exit;
	// internal/harness/leakcheck knows it by name.
	go k.run(tick)
}

func (k *kernelTimer) run(tick func()) {
	conn, err := k.f.SyscallConn()
	if err != nil {
		panic(err) // only a closed file has none, and nothing closes this one
	}
	var expirations [8]byte
	// A raw read: the descriptor never blocks, and a call the scheduler is
	// told about would wake its monitor thread on every wait.
	expired := func(fd uintptr) bool {
		_, _, errno := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&expirations)), 8)
		return errno != syscall.EAGAIN
	}
	for {
		if err := conn.Read(expired); err != nil {
			panic(err)
		}
		tick()
	}
}

// arm sets the timer to expire once, d nanoseconds from now.
func (k *kernelTimer) arm(d int64) {
	if k.f == nil {
		return
	}
	if d < 1 {
		d = 1 // zero would disarm
	}
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(d)} // interval, value
	_, _, _ = syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, k.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}
