package sched

import (
	"gowool/internal/locksched"
	"gowool/internal/steal"
)

// lockBackend registers the lock-based ladder (the paper's "base"
// steal implementation family, Figure 4).
var lockBackend = &backend[*locksched.Pool]{
	name:  "locksched",
	blurb: "lock-based ladder: per-worker locked task pools, base/peek/trylock steal strategies, leapfrogging joins",
	caps: Caps{
		Steal:      "per-worker lock around the victim's pool; steal child, oldest first",
		StealChild: true,
		Leapfrog:   true,
		Stats:      true,
		TaskDefs:   true,
		Trace:      true,
		Chaos:      true,
		// The victim's lock covers the whole pool, so a thief can take
		// half the stealable run in one critical section (steal-half).
		StealPolicies: steal.Policies(),
		StealAmounts:  steal.Amounts(),
	},
	newPool: func(o Options) *locksched.Pool {
		return locksched.NewPool(locksched.Options{
			Workers:        o.Workers,
			StackSize:      o.StackSize,
			StrictOverflow: o.StrictOverflow,
			MaxIdleSleep:   o.MaxIdleSleep,
			Trace:          o.Trace,
			Chaos:          o.Chaos,
			Steal:          o.Steal,
		})
	},
	stats: func(p *locksched.Pool) Stats {
		s := p.Stats()
		return Stats{
			Spawns:        s.Spawns,
			JoinsInlined:  s.JoinsInlined,
			JoinsStolen:   s.JoinsStolen,
			Steals:        s.Steals,
			StealAttempts: s.StealAttempts,
			Backoffs:      s.LockFailures,
			Extra: map[string]int64{
				"lock_failures":    s.LockFailures,
				"leap_steals":      s.LeapSteals,
				"overflow_inlined": s.OverflowInlined,
			},
		}
	},
	runRec: func(p *locksched.Pool, j RecJob) int64 {
		d := BuildRec(locksched.Define1, j)
		return p.Run(func(w *locksched.Worker) int64 {
			return sumReps(j.Reps, func() int64 { return d.Call(w, j.Root) })
		})
	},
	runRange: func(p *locksched.Pool, j RangeJob) int64 {
		d := BuildRange(locksched.Define2, j)
		return p.Run(func(w *locksched.Worker) int64 {
			return sumReps(j.Reps, func() int64 { return d.Call(w, 0, j.N) })
		})
	},
}
