package sched

import (
	"runtime"

	"gowool/internal/gonative"
)

// gonativeSched registers the idiomatic-Go baseline: fork-join with
// goroutines, channels and WaitGroups, scheduled by the Go runtime.
// There is no pool object and no counters (Caps.Stats is false); the
// adapter synthesizes a Pool so registry-driven tools treat it
// uniformly. RunRec throttles with ForkBounded — the manual
// granularity control Go programs need and the paper's scheduler
// exists to remove. Options.StackSize, StrictOverflow, Chaos and
// Watchdog are ignored: the Go runtime owns the task pool, so there is
// no capacity to bound, no protocol point to perturb, and no scheduler
// heartbeat to watch (Caps.Chaos and Caps.Watchdog are false).
type gonativeSched struct{}

func (gonativeSched) Name() string { return "gonative" }
func (gonativeSched) Blurb() string {
	return "idiomatic Go baseline: goroutines + channels/WaitGroups on the Go runtime, bounded forking for recursion, goroutine-per-chunk loops"
}
func (gonativeSched) Caps() Caps {
	return Caps{
		Steal: "the Go runtime's own scheduler; no explicit task pool",
		// No StealPolicies: victim selection belongs to the Go runtime.
	}
}

func (gonativeSched) NewPool(o Options) Pool {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &gonativePool{workers: workers}
}

type gonativePool struct{ workers int }

func (gp *gonativePool) Workers() int { return gp.workers }
func (gp *gonativePool) Close()       {}
func (gp *gonativePool) Native() any  { return nil }
func (gp *gonativePool) ResetStats()  {}
func (gp *gonativePool) Stats() Stats { return Stats{} }

func (gp *gonativePool) RunRec(j RecJob) int64 {
	fb := gonative.NewForkBounded(gp.workers)
	var rec func(n int64) int64
	rec = func(n int64) int64 {
		if v, ok := j.Leaf(n); ok {
			return v
		}
		first, second := j.Split(n)
		a, b := fb.Fork(
			func() int64 { return rec(second) },
			func() int64 { return rec(first) },
		)
		return a + b
	}
	return sumReps(j.Reps, func() int64 { return rec(j.Root) })
}

func (gp *gonativePool) RunRange(j RangeJob) int64 {
	out := make([]int64, j.N)
	return sumReps(j.Reps, func() int64 {
		if j.Irregular {
			gonative.ParallelForDynamic(0, j.N, 4, func(i int64) { out[i] = j.Leaf(i) })
		} else {
			gonative.ParallelFor(0, j.N, gp.workers, func(i int64) { out[i] = j.Leaf(i) })
		}
		var total int64
		for _, v := range out {
			total += v
		}
		return total
	})
}
