package sched

import (
	"gowool/internal/core"
	"gowool/internal/gen/ports"
	"gowool/internal/steal"
)

// wool registers the paper's direct task stack (internal/core).
var wool = &backend[*core.Pool]{
	name:  "wool",
	blurb: "direct task stack (the paper's scheduler): descriptors inline in a per-worker array, thief/victim sync on the descriptor state word, private tasks, leapfrogging",
	caps: Caps{
		Steal:        "CAS on the task descriptor's state word; steal child, oldest first",
		StealChild:   true,
		PrivateTasks: true,
		Leapfrog:     true,
		Stats:        true,
		TaskDefs:     true,
		Trace:        true,
		Chaos:        true,
		Watchdog:     true,
		// The direct task stack takes one task per steal: descriptors
		// live in the victim's stack and are claimed individually.
		StealPolicies: steal.Policies(),
		StealAmounts:  []string{steal.AmountOne},
		// *core.Pool implements Abort/Poisoned/Reset, so the serving
		// layer can cancel requests mid-flight (woolgen inherits this
		// Caps copy and with it the flag).
		Serve: true,
	},
	newPool: newCorePool,
	stats:   coreStats,
	runRec: func(p *core.Pool, j RecJob) int64 {
		d := BuildRec(core.Define1, j)
		return p.Run(func(w *core.Worker) int64 {
			return sumReps(j.Reps, func() int64 { return d.Call(w, j.Root) })
		})
	},
	runRange: func(p *core.Pool, j RangeJob) int64 {
		d := BuildRange(core.Define2, j)
		return p.Run(func(w *core.Worker) int64 {
			return sumReps(j.Reps, func() int64 { return d.Call(w, 0, j.N) })
		})
	},
}

// woolgen is the paper's direct task stack behind the woolgen-generated
// monomorphic ports (internal/gen/ports) instead of the generic
// task-port layer: same core.Pool, same protocol, but RunRec/RunRange
// spawn through Spawn*/Join* functions whose private fast path
// flattens to plain descriptor stores and direct body calls
// (DESIGN.md §13). Registering it as its own backend runs the
// generated code under the full conformance, torture, panic and chaos
// surface the registry provides — the generated fast path has to agree
// with the serial reference under every profile the generic ports do.
var woolgen = &backend[*core.Pool]{
	name:    "woolgen",
	blurb:   "direct task stack behind woolgen-generated monomorphic ports: private-path spawn/join flattens to plain stores and direct body calls",
	caps:    withGeneratedPorts(wool.caps),
	newPool: newCorePool,
	stats:   coreStats,
	runRec: func(p *core.Pool, j RecJob) int64 {
		c := &ports.RecCtx{Leaf: j.Leaf, Split: j.Split}
		return p.Run(func(w *core.Worker) int64 {
			return sumReps(j.Reps, func() int64 { return ports.CallRec(w, c, j.Root) })
		})
	},
	runRange: func(p *core.Pool, j RangeJob) int64 {
		c := &ports.RangeCtx{Leaf: j.Leaf}
		return p.Run(func(w *core.Worker) int64 {
			return sumReps(j.Reps, func() int64 { return ports.CallRange(w, c, 0, j.N) })
		})
	},
}

func withGeneratedPorts(c Caps) Caps {
	c.GeneratedPorts = true
	return c
}

func newCorePool(o Options) *core.Pool {
	return core.NewPool(core.Options{
		Workers:        o.Workers,
		StackSize:      o.StackSize,
		StrictOverflow: o.StrictOverflow,
		PrivateTasks:   o.PrivateTasks,
		MaxIdleSleep:   o.MaxIdleSleep,
		Trace:          o.Trace,
		Chaos:          o.Chaos,
		Watchdog:       o.Watchdog,
		Steal:          o.Steal,
	})
}

func coreStats(p *core.Pool) Stats {
	s := p.Stats()
	return Stats{
		Spawns:        s.Spawns,
		JoinsInlined:  s.JoinsInlinedPublic + s.JoinsInlinedPrivate,
		JoinsStolen:   s.JoinsStolen,
		Steals:        s.Steals,
		StealAttempts: s.StealAttempts,
		Backoffs:      s.Backoffs,
		Extra: map[string]int64{
			"joins_inlined_private": s.JoinsInlinedPrivate,
			"joins_inlined_public":  s.JoinsInlinedPublic,
			"leap_steals":           s.LeapSteals,
			"publications":          s.Publications,
			"privatizations":        s.Privatizations,
			"retained_steals":       s.RetainedSteals,
			"parks":                 s.Parks,
			"wakes":                 s.Wakes,
			"overflow_inlined":      s.OverflowInlined,
		},
	}
}
