package main

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// pacer is the open-loop sender's clock. Go's own timers wake an idle
// process through epoll's timeout, which has millisecond granularity: a
// time.Sleep of 100 µs returns after about a millisecond, and at
// thousands of requests per second the generator's lateness would be the
// largest part of every latency. nanosleep(2) is precise but blocks the
// thread with its P attached until sysmon notices, which stalls the
// system under test for milliseconds. A timerfd read through Go's
// netpoller has neither problem: the goroutine parks, and epoll wakes it
// when the high-resolution timer fires — about 20 µs late at the median
// on the reference host. What lateness remains is reported as
// client.sched_lag_p99_us and, because latency counts from the due time,
// is inside every open-loop latency.
type pacer struct {
	fd uintptr
	f  *os.File
}

const (
	clockMonotonic = 1       // CLOCK_MONOTONIC
	tfdFlags       = 0x80800 // TFD_NONBLOCK | TFD_CLOEXEC
)

// itimerspec mirrors struct itimerspec of timerfd_settime(2).
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdFlags, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// The descriptor is non-blocking, so NewFile hands it to the poller.
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep parks the calling goroutine for ns nanoseconds (ns > 0). On a
// timer error it returns early, which costs the caller one more turn of
// its wait loop.
func (p *pacer) sleep(ns int64) {
	its := itimerspec{value: syscall.NsecToTimespec(ns)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
		return
	}
	var expirations [8]byte
	p.f.Read(expirations[:])
}

func (p *pacer) close() { p.f.Close() }
