package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps with sub-millisecond precision. The runtime's own timers can
// wake a millisecond late while every goroutine is parked in the network
// poller, and that lateness would be charged to the server as latency. A
// timerfd read instead parks the goroutine in the poller itself, which
// wakes as soon as the timer fires, without holding a P in a syscall.
type pacer struct {
	f *os.File // nil: fall back to time.Sleep
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newPacer() *pacer {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return &pacer{}
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}
}

// sleep waits for d.
func (p *pacer) sleep(d time.Duration) {
	if p.f == nil {
		time.Sleep(d)
		return
	}
	// struct itimerspec: interval {sec, nsec}, value {sec, nsec}.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	var errno syscall.Errno
	if rc, ok := p.f.SyscallConn(); ok == nil {
		_ = rc.Control(func(fd uintptr) {
			_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
				uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		})
	}
	if errno != 0 {
		time.Sleep(d)
		return
	}
	var buf [8]byte
	if _, err := p.f.Read(buf[:]); err != nil {
		time.Sleep(d)
	}
}

func (p *pacer) close() {
	if p.f != nil {
		p.f.Close()
	}
}
