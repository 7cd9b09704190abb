package main

import (
	"errors"
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps with microsecond precision without holding a processor.
// time.Sleep wakes about a millisecond late on common Linux hosts when
// the processors are idle, which would show up as generator lag in
// every latency, and a blocking nanosleep would keep its processor away
// from the server while it sleeps. A read of a Linux timerfd parks the
// goroutine on the runtime's poller, which the kernel wakes at the
// deadline when a processor is idle; the read's deadline, a runtime
// timer, wakes it when every processor is busy and the poller is not
// being waited on.
type pacer struct {
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, syscall.O_NONBLOCK, syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks for d (nothing when d <= 0).
func (p *pacer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // it_interval, it_value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	if err := p.f.SetReadDeadline(time.Now().Add(d)); err != nil {
		return err
	}
	// Re-arming the timerfd clears an expiry the deadline beat.
	if _, err := p.f.Read(p.buf[:]); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	return nil
}

func (p *pacer) close() error { return p.f.Close() }
