package main

import (
	"runtime"
	"syscall"
)

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// lockGenerator pins the calling goroutine to its OS thread and
// shrinks the thread's timer slack to 1 µs, so sleepUntil wakes within
// ~10 µs of its target. Go's own timers wake with ~1 ms granularity
// on an idle runtime, which would swamp request latencies of tens of
// microseconds. The returned function undoes the pin.
func lockGenerator() func() {
	runtime.LockOSThread()
	// A failed prctl leaves the default 50 µs slack: later wake-ups,
	// which the generator-lag figures then show.
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	return func() {
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 50000, 0)
		runtime.UnlockOSThread()
	}
}

// sleepUntil blocks the thread in nanosleep until about t (it never
// spins). An interrupted sleep returns early; callers re-check the
// clock.
func sleepUntil(t int64) {
	d := t - now()
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d)
	_ = syscall.Nanosleep(&ts, nil)
}
