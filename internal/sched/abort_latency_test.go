package sched_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"gowool/internal/chaos"
	"gowool/internal/poolerr"
	"gowool/internal/sched"
	"gowool/internal/workloads/fibw"
)

// abortCheckPeriod mirrors internal/core's countdown of the same name:
// the most generic joins a worker performs between two loads of the
// poison flag. The abort-latency bound is stated in its units.
const abortCheckPeriod = 32

// abortLatencyN sizes the probe tree: fib(24) has 75 025 leaves, so a
// run that ignored the abort would start tens of thousands after it.
const abortLatencyN = 24

// The probe's task argument carries a kind above the low 32 bits (the
// fib argument). The root spawns a one-leaf task first, so on two
// workers the thief's second steal takes the root's big spawned
// subtree (kindAborting) and trips the owner's wire.
const (
	kindFib int64 = iota
	kindRoot
	kindTop
	kindAborting
)

// abortProbe is fib(abortLatencyN) whose leaves count themselves. The
// first leaf of the root's spawned fib(abortLatencyN-2) subtree calls
// abort, mid-tree on one worker and on the thief on two; every leaf
// that starts after that call returned counts as late.
type abortProbe struct {
	started, late atomic.Int64
	fired         atomic.Bool
	aborted       atomic.Bool
}

func (a *abortProbe) job(abort func()) sched.RecJob {
	arg := func(kind, n int64) int64 { return kind<<32 | n }
	return sched.RecJob{
		Name: "abort-probe",
		Root: arg(kindRoot, abortLatencyN),
		Leaf: func(x int64) (int64, bool) {
			kind, n := x>>32, x&(1<<32-1)
			if kind == kindRoot || kind == kindTop || n >= 2 {
				return 0, false
			}
			if a.aborted.Load() {
				a.late.Add(1)
			}
			a.started.Add(1)
			if kind == kindAborting && !a.fired.Swap(true) {
				abort()
				a.aborted.Store(true)
			}
			return n, true
		},
		Split: func(x int64) (inline, spawned int64) {
			kind, n := x>>32, x&(1<<32-1)
			switch kind {
			case kindRoot:
				return arg(kindTop, n), arg(kindFib, 0)
			case kindTop:
				return arg(kindFib, n-1), arg(kindAborting, n-2)
			}
			return arg(kind, n-1), arg(kind, n-2)
		},
	}
}

// checkAbortLatency runs the probe on p: Run must raise the
// *poolerr.AbortError, no more than abortCheckPeriod leaves per worker
// may start after Abort returned, and Reset must return the pool to
// correct service.
func checkAbortLatency(t *testing.T, p sched.Pool, workers int) {
	t.Helper()
	ab, ok := p.Native().(sched.Abortable)
	if !ok {
		t.Fatal("Caps.Serve set but Native does not implement sched.Abortable")
	}
	reason := errors.New("abort-latency probe")
	probe := &abortProbe{}
	var r any
	func() {
		defer func() { r = recover() }()
		p.RunRec(probe.job(func() { ab.Abort(reason) }))
	}()
	ae, isAbort := r.(*poolerr.AbortError)
	if !isAbort || !errors.Is(ae, reason) {
		t.Fatalf("aborted Run raised %T (%v), want *poolerr.AbortError wrapping the reason", r, r)
	}
	if late, bound := probe.late.Load(), int64(abortCheckPeriod*workers); late > bound {
		t.Errorf("%d leaves started after Abort returned (%d started in all), bound %d (abortCheckPeriod per worker)",
			late, probe.started.Load(), bound)
	}
	if err := ab.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if got, want := p.RunRec(fibw.Job(16, 1)), fibw.Serial(16); got != want {
		t.Fatalf("post-Reset fib(16) = %d, want %d", got, want)
	}
}

// TestAbortLatency pins how promptly a request-scoped abort lands, on
// every Caps.Serve backend with private tasks off and on, on one and
// two workers. A private tree on the generated ports never reaches the
// generic join's countdown; the abort reaches it through the trip wire
// (the next spawn re-raises the poison), so the bound holds there too.
func TestAbortLatency(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, s := range sched.All() {
		if !s.Caps().Serve {
			continue
		}
		for _, private := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/private=%v/workers=%d", s.Name(), private, workers), func(t *testing.T) {
					p := s.NewPool(sched.Options{Workers: workers, PrivateTasks: private})
					defer p.Close()
					checkAbortLatency(t, p, workers)
				})
			}
		}
	}
}

// TestAbortLatencyTripwireDelay reruns the two-worker private cells
// with a long chaos delay at every trip-wire answer and spinning idle
// workers. The thief's steal of the aborting subtree trips the owner's
// wire, so the owner sits in publishMore's delay — between clearing
// the wire and checking the poison — when the thief's first leaf
// aborts. The check must see that abort; had the clear come after the
// check, it would wipe the abort's trip and the owner's private fast
// path would run on through the rest of its subtree.
func TestAbortLatencyTripwireDelay(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	prof := chaos.Profile{Name: "tripwire-delay", SpinIters: 1 << 20}
	prof.Delay[chaos.PointTripwirePublish] = 65535
	const workers = 2
	for _, s := range sched.All() {
		if !s.Caps().Serve {
			continue
		}
		t.Run(s.Name(), func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				p := s.NewPool(sched.Options{
					Workers:      workers,
					PrivateTasks: true,
					MaxIdleSleep: -1,
					Chaos:        chaos.NewInjector(workers, prof, seed),
				})
				checkAbortLatency(t, p, workers)
				p.Close()
			}
		})
	}
}
