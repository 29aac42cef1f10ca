//go:build !linux

package main

import (
	"runtime"
	"time"
)

// lockGenerator pins the generator goroutine to its thread; without
// Linux's timer-slack control, sleeps use Go's timers.
func lockGenerator() func() {
	runtime.LockOSThread()
	return runtime.UnlockOSThread
}

// sleepUntil blocks until the clock reaches t (it never spins).
func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}
