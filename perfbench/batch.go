package main

import (
	"fmt"
	"runtime"

	"gowool"
	"gowool/internal/sched"
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/stress"
)

// Batch workloads: repeated fork-join regions on one 2-worker pool
// with private tasks, through the public Define/Run API. A region is
// one Pool.Run; the loop is closed (the next region starts when the
// previous returns), as in the paper's repeated-kernel benchmarks.

const (
	fibN = 24 // fib-pool region: fib(24), ~1 ms

	stressHeight = 8   // stress-regions region: a height-8 tree,
	stressIters  = 256 // 256-iteration leaves (the paper's G_L=512 cycles set)
)

// batchSpec describes one batch workload.
type batchSpec struct {
	name string
	// root returns the region body; with lt non-nil the body records
	// which worker ran each leaf (the traced variant).
	root func(lt *leafTrace) func(*gowool.Worker) int64
	// serial runs one region with no task constructs.
	serial func() int64
	// spawns is the exact spawn count of one region.
	spawns int64
	// warm is the warm-up region count of set-up.
	warm int
	// maxRate bounds the region rate, sizing the latency buffers.
	maxRate float64
	// job is the same region as a registry RecJob, for the sched probe.
	job sched.RecJob
}

// leafTrace records which worker ran each leaf, and when worker 1 ran
// its first leaf of the current region. Each worker writes only its
// own counter, allocated apart and guarded on both sides so no other
// hot data shares (or is prefetched with) its cache lines: recording
// then adds no atomics and no sharing to the leaves. The main goroutine
// reads and resets the counters between regions (the region's joins
// order those accesses).
type leafTrace struct{ w [2]*leafCounter }

type leafCounter struct {
	_             [512]byte
	leaves, first int64
	_             [512]byte
}

func newLeafTrace() *leafTrace {
	return &leafTrace{[2]*leafCounter{new(leafCounter), new(leafCounter)}}
}

func (lt *leafTrace) leaf(w *gowool.Worker) {
	i := w.Index()
	if i > 1 {
		return
	}
	lc := lt.w[i]
	lc.leaves++
	if lc.first == 0 {
		lc.first = now()
	}
}

func fibPool() batchSpec {
	plain := fibDef(nil)
	return batchSpec{
		name: "fib-pool",
		root: func(lt *leafTrace) func(*gowool.Worker) int64 {
			d := plain
			if lt != nil {
				d = fibDef(lt)
			}
			return func(w *gowool.Worker) int64 { return d.Call(w, fibN) }
		},
		serial:  func() int64 { return fibw.Serial(fibN) },
		spawns:  fibw.Tasks(fibN),
		warm:    200,
		maxRate: 20e3,
		job:     fibw.Job(fibN, 1),
	}
}

// fibDef is the paper's Figure 2 fib with no cutoff.
func fibDef(lt *leafTrace) *gowool.TaskDef1 {
	var fib *gowool.TaskDef1
	if lt == nil {
		fib = gowool.Define1("fib", func(w *gowool.Worker, n int64) int64 {
			if n < 2 {
				return n
			}
			fib.Spawn(w, n-2)
			a := fib.Call(w, n-1)
			b := fib.Join(w)
			return a + b
		})
		return fib
	}
	fib = gowool.Define1("fib-traced", func(w *gowool.Worker, n int64) int64 {
		if n < 2 {
			lt.leaf(w)
			return n
		}
		fib.Spawn(w, n-2)
		a := fib.Call(w, n-1)
		b := fib.Join(w)
		return a + b
	})
	return fib
}

func stressRegions() batchSpec {
	plain := stressDef(nil)
	return batchSpec{
		name: "stress-regions",
		root: func(lt *leafTrace) func(*gowool.Worker) int64 {
			d := plain
			if lt != nil {
				d = stressDef(lt)
			}
			return func(w *gowool.Worker) int64 { return d.Call(w, stressHeight, stressIters) }
		},
		serial:  func() int64 { return stress.Serial(stressHeight, stressIters) },
		spawns:  1<<stressHeight - 1,
		warm:    2000,
		maxRate: 40e3,
		job:     stress.Job(stressHeight, stressIters, 1),
	}
}

// stressDef is the paper's stress tree: a balanced binary tree whose
// leaves spin stress.SpinLeaf.
func stressDef(lt *leafTrace) *gowool.TaskDef2 {
	var tree *gowool.TaskDef2
	if lt == nil {
		tree = gowool.Define2("stress", func(w *gowool.Worker, h, iters int64) int64 {
			if h == 0 {
				return stress.SpinLeaf(iters)
			}
			tree.Spawn(w, h-1, iters)
			a := tree.Call(w, h-1, iters)
			b := tree.Join(w)
			return a + b
		})
		return tree
	}
	tree = gowool.Define2("stress-traced", func(w *gowool.Worker, h, iters int64) int64 {
		if h == 0 {
			lt.leaf(w)
			return stress.SpinLeaf(iters)
		}
		tree.Spawn(w, h-1, iters)
		a := tree.Call(w, h-1, iters)
		b := tree.Join(w)
		return a + b
	})
	return tree
}

// batchPass is one measured closed loop of regions.
type batchPass struct {
	regions int64
	wallNs  int64 // summed region wall time
	lat     usSamples
	stats   gowool.Stats // counter delta
	mem     memDelta
	// traced pass only
	firstSteal usSamples
	leaves     [2]int64
}

func runBatch(c config, spec batchSpec) (*result, error) {
	r := &result{metrics: map[string]float64{}}
	want := spec.serial()
	measure := c.seconds
	if c.trace {
		measure /= 2
	}
	capacity := int(measure*spec.maxRate) + 1

	// Set-up: inputs (the serial reference), the pool, warm-up. Done
	// setupRounds times; the last pool is kept.
	var pool *gowool.Pool
	var root func(*gowool.Worker) int64
	var untraced, traced batchPass
	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		t0 := now()
		if got := spec.serial(); got != want {
			return nil, fmt.Errorf("serial reference not deterministic: %d vs %d", got, want)
		}
		untraced.lat = newSamples(capacity)
		if c.trace {
			traced.lat = newSamples(capacity)
			traced.firstSteal = newSamples(capacity)
		}
		p := gowool.NewPool(gowool.Options{Workers: lanes(), PrivateTasks: true})
		rt := spec.root(nil)
		for k := 0; k < spec.warm; k++ {
			if v := p.Run(rt); v != want {
				r.mismatch("warm-up region = %d, want %d", v, want)
			}
		}
		setups = append(setups, float64(now()-t0)/1e9)
		if i < setupRounds-1 {
			p.Close()
			continue
		}
		pool, root = p, rt
	}
	defer pool.Close()
	r.set("setup_s", median(setups))
	runtime.GC() // drop the earlier rounds' buffers before heap sampling

	hp := newHeapPeak()
	batchLoop(r, pool, root, nil, nil, measure, want, spec, &untraced, hp)
	r.set("ops_per_s", untraced.lat.chunkedRate())
	r.set("lat_p50_us", untraced.lat.chunked(0.5))
	r.set("e2e.lat_p99_us", untraced.lat.chunked(0.99))
	r.set("heap_peak_mb", hp.mb())
	r.note("regions/s by chunk %.0f", untraced.lat.chunks(func(c []float64) float64 { return 1e6 / interquartileMean(c) }))
	r.note("region p50 us by chunk %.1f", untraced.lat.chunks(func(c []float64) float64 { return quantile(c, 0.5) }))
	r.attempted = untraced.regions

	st, n := untraced.stats, float64(untraced.regions)
	r.set("core.spawns_per_region", float64(st.Spawns)/n)
	r.set("core.ns_per_task", ratio(float64(untraced.wallNs), float64(st.Spawns)))
	r.set("core.private_join_share", ratio(float64(st.JoinsInlinedPrivate), float64(st.Joins())))
	r.set("core.steals_per_region", float64(st.Steals)/n)
	r.set("core.steal_success_ratio", ratio(float64(st.Steals), float64(st.StealAttempts)))
	r.set("core.leap_steals_per_region", float64(st.LeapSteals)/n)
	r.set("core.publications_per_region", float64(st.Publications)/n)
	r.set("core.privatizations_per_region", float64(st.Privatizations)/n)
	r.set("core.backoffs_per_region", float64(st.Backoffs)/n)
	r.set("core.parks_per_region", float64(st.Parks)/n)
	r.set("core.wakes_per_region", float64(st.Wakes)/n)
	r.set("runtime.gc_cycles", untraced.mem.gcCycles())
	r.set("runtime.gc_pause_total_us", untraced.mem.gcPauseUs())
	r.set("e2e.allocs_per_op", untraced.mem.mallocs()/n)
	r.set("e2e.fail_ratio", float64(r.failed)/n)

	if !c.trace {
		return r, nil
	}

	// Traced pass: the same loop with spans around Pool.Run and leaf
	// callbacks recording which worker ran them.
	log := newSpanLog(1 << 18)
	lt := newLeafTrace()
	batchLoop(r, pool, spec.root(lt), lt, log, measure, want, spec, &traced, nil)
	r.attempted += traced.regions
	leaves := traced.leaves[0] + traced.leaves[1]
	r.set("core.first_steal_us", traced.firstSteal.q(0.5))
	r.set("core.worker1_leaf_share", ratio(float64(traced.leaves[1]), float64(leaves)))
	r.set("trace.ops_overhead_share", 1-ratio(traced.lat.chunkedRate(), untraced.lat.chunkedRate()))
	r.set("trace.lat_p50_overhead_share", ratio(traced.lat.chunked(0.5), untraced.lat.chunked(0.5))-1)
	r.note("tracing overhead: ops/s %+.2f%%, region p50 %+.2f%% (traced vs untraced pass, %d vs %d regions)",
		-100*r.metrics["trace.ops_overhead_share"], 100*r.metrics["trace.lat_p50_overhead_share"], traced.regions, untraced.regions)

	probeLayers(r, log, spec.job, spec.serial)
	return r, finishTrace(c, r, log, spec.name)
}

// batchLoop runs closed-loop regions for seconds (or until the latency
// buffer fills), checking every result against want. With lt and log
// non-nil it also records the traced per-region data and a Pool.Run
// span per region.
func batchLoop(r *result, pool *gowool.Pool, root func(*gowool.Worker) int64, lt *leafTrace, log *spanLog,
	seconds float64, want int64, spec batchSpec, p *batchPass, hp *heapPeak) {
	s0 := pool.Stats()
	p.mem.start()
	deadline := now() + int64(seconds*1e9)
	for !p.lat.full() {
		if lt != nil {
			lt.w[0].first, lt.w[1].first = 0, 0
		}
		t0 := now()
		v := pool.Run(root)
		t1 := now()
		if v != want {
			r.failed++
			r.mismatch("%s region = %d, want %d", spec.name, v, want)
		}
		log.add(-1, p.regions, "Pool.Run", t0, t1)
		p.regions++
		p.wallNs += t1 - t0
		p.lat.add(t1 - t0)
		if lt != nil && lt.w[1].first != 0 {
			p.firstSteal.add(lt.w[1].first - t0)
		}
		if hp != nil {
			hp.poll(t1)
		}
		if t1 >= deadline {
			break
		}
	}
	p.mem.stop()
	p.stats = statsDelta(pool.Stats(), s0)
	// The spawn oracle: every region spawns exactly the tree's tasks.
	if p.stats.Spawns != p.regions*spec.spawns {
		r.mismatch("spawns = %d over %d regions, want %d per region", p.stats.Spawns, p.regions, spec.spawns)
	}
	if p.stats.OverflowInlined != 0 {
		r.mismatch("%d spawns overflow-inlined", p.stats.OverflowInlined)
	}
	if lt != nil {
		p.leaves = [2]int64{lt.w[0].leaves, lt.w[1].leaves}
	}
}

// statsDelta returns a − b counter by counter.
func statsDelta(a, b gowool.Stats) gowool.Stats { return statsCombine(a, b, -1) }

// statsAdd returns a + b counter by counter.
func statsAdd(a, b gowool.Stats) gowool.Stats { return statsCombine(a, b, 1) }

func statsCombine(a, b gowool.Stats, sign int64) gowool.Stats {
	return gowool.Stats{
		Spawns:              a.Spawns + sign*b.Spawns,
		JoinsInlinedPublic:  a.JoinsInlinedPublic + sign*b.JoinsInlinedPublic,
		JoinsInlinedPrivate: a.JoinsInlinedPrivate + sign*b.JoinsInlinedPrivate,
		JoinsStolen:         a.JoinsStolen + sign*b.JoinsStolen,
		Steals:              a.Steals + sign*b.Steals,
		StealAttempts:       a.StealAttempts + sign*b.StealAttempts,
		Backoffs:            a.Backoffs + sign*b.Backoffs,
		LeapSteals:          a.LeapSteals + sign*b.LeapSteals,
		Publications:        a.Publications + sign*b.Publications,
		Privatizations:      a.Privatizations + sign*b.Privatizations,
		RetainedSteals:      a.RetainedSteals + sign*b.RetainedSteals,
		Parks:               a.Parks + sign*b.Parks,
		Wakes:               a.Wakes + sign*b.Wakes,
		OverflowInlined:     a.OverflowInlined + sign*b.OverflowInlined,
	}
}
