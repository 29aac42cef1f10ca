package sched

import (
	"gowool/internal/chaselev"
	"gowool/internal/steal"
)

// chaselevBackend registers the Chase-Lev deque scheduler (the TBB
// stand-in).
var chaselevBackend = &backend[*chaselev.Pool]{
	name:  "chaselev",
	blurb: "Chase-Lev deque, TBB-style: free-list task structures, pointer deque, thief/victim sync on the top/bottom indices, steal-anywhere blocked joins",
	caps: Caps{
		Steal:      "CAS on the deque's top index; steal child, oldest first",
		StealChild: true,
		Stats:      true,
		TaskDefs:   true,
		Trace:      true,
		Chaos:      true,
		// The index-synchronized deque supports batch extraction: a
		// thief can CAS-claim a run of top entries (steal-half).
		StealPolicies: steal.Policies(),
		StealAmounts:  steal.Amounts(),
	},
	newPool: func(o Options) *chaselev.Pool {
		return chaselev.NewPool(chaselev.Options{
			Workers:        o.Workers,
			DequeSize:      o.StackSize,
			StrictOverflow: o.StrictOverflow,
			MaxIdleSleep:   o.MaxIdleSleep,
			Trace:          o.Trace,
			Chaos:          o.Chaos,
			Steal:          o.Steal,
		})
	},
	stats: func(p *chaselev.Pool) Stats {
		s := p.Stats()
		return Stats{
			Spawns:        s.Spawns,
			JoinsInlined:  s.JoinsInlined,
			JoinsStolen:   s.JoinsStolen,
			Steals:        s.Steals,
			StealAttempts: s.StealAttempts,
			Backoffs:      s.Backoffs,
			Extra: map[string]int64{
				"wait_steals":      s.WaitSteals,
				"allocs":           s.Allocs,
				"overflow_inlined": s.OverflowInlined,
			},
		}
	},
	runRec: func(p *chaselev.Pool, j RecJob) int64 {
		d := BuildRec(chaselev.Define1, j)
		return p.Run(func(w *chaselev.Worker) int64 {
			return sumReps(j.Reps, func() int64 { return d.Call(w, j.Root) })
		})
	},
	runRange: func(p *chaselev.Pool, j RangeJob) int64 {
		d := BuildRange(chaselev.Define2, j)
		return p.Run(func(w *chaselev.Worker) int64 {
			return sumReps(j.Reps, func() int64 { return d.Call(w, 0, j.N) })
		})
	},
}
