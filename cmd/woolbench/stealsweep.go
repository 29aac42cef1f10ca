package main

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"gowool/internal/costmodel"
	"gowool/internal/sched"
	"gowool/internal/sim"
	"gowool/internal/steal"
	"gowool/internal/trace"
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/stress"
)

// The steal-policy sweep (woolbench -stealsweep FILE) runs the full
// policy × amount × backend × workload grid natively, extracts the
// per-cell steal matrix through the trace exporter, and runs the same
// policy grid on the virtual-time simulator's sharded 64-processor
// topology — one file from which simulated and native policy rankings
// can be compared (EXPERIMENTS.md reads its numbers from here).

// sweepNeighborhood is the Localized ring-neighborhood size used for
// the native cells. At the sweep's small worker counts the package
// default of 4 covers most of the ring, degenerating Localized into
// Random; 2 keeps the locality signal visible in the matrices.
const sweepNeighborhood = 2

// localRadius is the ring distance the Localized neighborhood reaches:
// its h nearest workers alternate +1, -1, +2, -2, ..., so they lie
// within distance (h+1)/2.
const localRadius = (sweepNeighborhood + 1) / 2

// sweepSizes holds the per-scale workload parameters.
type sweepSizes struct {
	fibN                            int64
	stressHeight, stressIters, reps int64
	workers, timedReps              int
	simFibN, simHeight, simIters    int64
	simProcs, simShards             int
}

func sweepScale(full bool) sweepSizes {
	if full {
		return sweepSizes{
			fibN: 27, stressHeight: 8, stressIters: 256, reps: 10,
			workers: 8, timedReps: 2,
			simFibN: 24, simHeight: 11, simIters: 64,
			simProcs: 64, simShards: 8,
		}
	}
	return sweepSizes{
		fibN: 22, stressHeight: 7, stressIters: 64, reps: 4,
		workers: 4, timedReps: 1,
		simFibN: 18, simHeight: 9, simIters: 32,
		simProcs: 64, simShards: 8,
	}
}

// matrixStats reduces a steal matrix to the locality numbers: total
// victim steals, steal-weighted mean ring distance, and the fraction
// within localRadius.
func matrixStats(m *trace.StealMatrix) (steals int64, meanDist, localFrac float64) {
	var distSum, local int64
	for thief := range m.Steals {
		for victim, c := range m.Steals[thief] {
			if c == 0 {
				continue
			}
			d := steal.RingDistance(thief, victim, m.Workers)
			steals += c
			distSum += c * int64(d)
			if d <= localRadius {
				local += c
			}
		}
	}
	if steals > 0 {
		meanDist = float64(distSum) / float64(steals)
		localFrac = float64(local) / float64(steals)
	}
	return steals, meanDist, localFrac
}

// runNativeCell runs one backend × policy × amount × workload cell on
// a traced pool and reduces its trace to the cell's records.
func runNativeCell(s sched.Scheduler, pol, amt, workload string, sz sweepSizes) ([]record, error) {
	var job sched.RecJob
	var want int64
	switch workload {
	case "fib":
		job = fibw.Job(sz.fibN, sz.reps)
		want = fibw.Serial(sz.fibN) * sz.reps
	case "stress":
		job = stress.Job(sz.stressHeight, sz.stressIters, sz.reps)
		want = stress.SerialReps(sz.stressHeight, sz.stressIters, sz.reps)
	default:
		return nil, fmt.Errorf("unknown sweep workload %q", workload)
	}
	tr := trace.New(sz.workers, 0)
	p := s.NewPool(sched.Options{
		Workers: sz.workers,
		Trace:   tr,
		Steal: steal.Config{
			Policy:       pol,
			Amount:       amt,
			Neighborhood: sweepNeighborhood,
		},
	})
	defer p.Close()
	samples, err := timeMs(sz.timedReps, func() error {
		if got := p.RunRec(job); got != want {
			return fmt.Errorf("%s/%s/%s %s = %d, want %d", s.Name(), pol, amt, workload, got, want)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := tr.StealMatrix()
	// steals counts successful victim steals (leapfrog included),
	// central the takes from a central queue (no victim).
	steals, meanDist, localFrac := matrixStats(m)
	var leapfrog, central int64
	for thief := range m.Leap {
		central += m.Central[thief]
		for _, c := range m.Leap[thief] {
			leapfrog += c
		}
	}
	l := labels{Backend: s.Name(), Policy: pol, Amount: amt, Workload: workload}
	best := bestOf("best_ms", "ms", samples, l)
	fmt.Printf("  %-10s %-12s %-5s %-7s %8.1f ms  steals=%-6d dist=%.2f local=%.2f\n",
		l.Backend, pol, amt, workload, best.Value, steals, meanDist, localFrac)
	return []record{
		best,
		{Key: "steals", Unit: "count", Value: float64(steals), Labels: l},
		{Key: "leapfrog", Unit: "count", Value: float64(leapfrog), Labels: l},
		{Key: "central", Unit: "count", Value: float64(central), Labels: l},
		{Key: "mean_ring_dist", Unit: "workers", Value: meanDist, Labels: l},
		{Key: "local_frac", Unit: "ratio", Value: localFrac, Labels: l},
	}, nil
}

// simKinds is the simulator protocol grid: the kinds with per-worker
// pools (KindCentral has no victims, so policies cannot apply).
var simKinds = []sim.Kind{sim.KindDirectStack, sim.KindDeque, sim.KindLock}

// runSimCell runs one protocol × policy × workload cell at sz.simProcs
// on the sharded topology and reduces Result.StealsFrom to hop stats.
func runSimCell(kind sim.Kind, pol, workload string, sz sweepSizes) []record {
	var def *sim.Def
	var args sim.Args
	switch workload {
	case "fib":
		def, args = fibw.NewSim(), sim.Args{A0: sz.simFibN}
	case "stress":
		def, args = stress.NewSimReps(), sim.Args{A0: sz.simHeight, A1: sz.simIters, A2: 1}
	}
	cfg := sim.Config{
		Procs: sz.simProcs, Kind: kind, Costs: costmodel.Wool(),
		Steal:    steal.Config{Policy: pol},
		Topology: sim.Topology{Shards: sz.simShards},
	}
	res := sim.Run(cfg, def, args)
	var steals, hopSum, remote int64
	for thief := range res.StealsFrom {
		for victim, c := range res.StealsFrom[thief] {
			if c == 0 {
				continue
			}
			sa := thief * sz.simShards / sz.simProcs
			sb := victim * sz.simShards / sz.simProcs
			h := sa - sb
			if h < 0 {
				h = -h
			}
			steals += c
			hopSum += c * int64(h)
			if h > 0 {
				remote += c
			}
		}
	}
	// meanHops is the steal-weighted mean shard distance, remoteFrac
	// the fraction of steals that crossed a shard boundary.
	var meanHops, remoteFrac float64
	if steals > 0 {
		meanHops = float64(hopSum) / float64(steals)
		remoteFrac = float64(remote) / float64(steals)
	}
	kcycles := float64(res.Makespan) / 1e3
	fmt.Printf("  %-12s %-12s %-7s %10.0f kcycles  steals=%-6d hops=%.2f remote=%.2f\n",
		kind, pol, workload, kcycles, steals, meanHops, remoteFrac)
	l := labels{Kind: kind.String(), Policy: pol, Workload: workload}
	return []record{
		{Key: "kcycles", Unit: "kcycles", Value: kcycles, Labels: l},
		{Key: "steals", Unit: "count", Value: float64(steals), Labels: l},
		{Key: "mean_hops", Unit: "shards", Value: meanHops, Labels: l},
		{Key: "remote_frac", Unit: "ratio", Value: remoteFrac, Labels: l},
	}
}

// printRanking prints the fib cells' key values (amount one where the
// cell has an amount) per group, policies fastest first — the native
// and simulated rankings the sweep exists to compare.
func printRanking(recs []record, key, unit string, group func(labels) string) {
	byGroup := map[string][]record{}
	for _, r := range recs {
		l := r.Labels
		if r.Key == key && l.Workload == "fib" && (l.Amount == "" || l.Amount == steal.AmountOne) {
			byGroup[group(l)] = append(byGroup[group(l)], r)
		}
	}
	for _, g := range slices.Sorted(maps.Keys(byGroup)) {
		rs := byGroup[g]
		sort.Slice(rs, func(i, j int) bool { return rs[i].Value < rs[j].Value })
		fmt.Printf("  %-12s", g)
		for _, r := range rs {
			fmt.Printf(" %s=%.1f%s", r.Labels.Policy, r.Value, unit)
		}
		fmt.Println()
	}
}

// runStealSweep produces BENCH_steal.json: the native policy grid over
// every backend that advertises StealPolicies, plus the simulator grid
// on the sharded topology.
func runStealSweep(path string, full bool) error {
	sz := sweepScale(full)
	scale := "quick"
	if full {
		scale = "full"
	}
	e, restore := benchEnv(sz.workers, scale)
	defer restore()
	rep := &report{
		Env: e,
		Records: []record{
			{Key: "workers", Unit: "count", Value: float64(sz.workers)},
			{Key: "procs", Unit: "count", Value: float64(sz.simProcs)},
			{Key: "shards", Unit: "count", Value: float64(sz.simShards)},
		},
		Notes: map[string]string{
			"native": fmt.Sprintf("policy × amount × workload per backend advertising StealPolicies; %d workers, best of %d wall-clock reps; steal counts and locality from the trace exporter's steal matrix (reprint one with woolrun -stealpolicy P -stealamount A -stealmatrix); localized neighborhood %d, local_frac counts steals within ring distance %d", sz.workers, sz.timedReps, sweepNeighborhood, localRadius),
			"sim":    fmt.Sprintf("virtual-time sweep at P=%d on a %d-shard linear topology (remote probes +%d cycles/hop, remote steals +%d cycles/hop); kcycles is makespan/1e3", sz.simProcs, sz.simShards, costmodel.RemoteProbePenalty, costmodel.RemoteStealPenalty),
			"intent": "compare the native policy ranking (best_ms per backend) with the simulated ranking (kcycles per protocol); EXPERIMENTS.md §steal-policies reads from this file",
		},
	}

	fmt.Printf("stealsweep: native grid (%s scale)\n", scale)
	for _, s := range sched.All() {
		caps := s.Caps()
		if len(caps.StealPolicies) == 0 || !caps.Trace {
			continue
		}
		for _, pol := range caps.StealPolicies {
			for _, amt := range caps.StealAmounts {
				for _, workload := range []string{"fib", "stress"} {
					recs, err := runNativeCell(s, pol, amt, workload, sz)
					if err != nil {
						return err
					}
					rep.Records = append(rep.Records, recs...)
				}
			}
		}
	}

	fmt.Printf("stealsweep: sim grid (P=%d, %d shards)\n", sz.simProcs, sz.simShards)
	for _, kind := range simKinds {
		for _, pol := range steal.Policies() {
			for _, workload := range []string{"fib", "stress"} {
				rep.Records = append(rep.Records, runSimCell(kind, pol, workload, sz)...)
			}
		}
	}

	fmt.Println("stealsweep: native policy ranking per backend (fib, amount=one, fastest first)")
	printRanking(rep.Records, "best_ms", "ms", func(l labels) string { return l.Backend })
	fmt.Printf("stealsweep: sim policy ranking per protocol (fib, P=%d, %d shards, fastest first)\n", sz.simProcs, sz.simShards)
	printRanking(rep.Records, "kcycles", "k", func(l labels) string { return l.Kind })
	return writeReport(path, rep)
}
