package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"gowool/internal/core"
	"gowool/internal/gen/ports"
	"gowool/internal/sched"
	"gowool/internal/workloads/fibw"
)

const (
	// ladderDepth places the measured spawn/join pair past the public
	// prefix (InitialPublic descriptors) on private-task pools, so the
	// private keys measure the true plain-stores path rather than the
	// public-slot path that depth 0 lands on.
	ladderDepth = 4
	// batchWindow is the SpawnNoopN/JoinNoopN window size for the
	// batch key; the per-pair cost divides the window's bookkeeping
	// across its tasks.
	batchWindow = 16
)

// ladder runs one spawn/join micro benchmark on a single-worker pool:
// pair is invoked b.N times at ladderDepth (private pools) or depth 0
// (public pools). Returns ns per pair for each of three runs.
func ladder(private bool, pairs int, pair func(w *core.Worker)) []float64 {
	p := core.NewPool(core.Options{Workers: 1, PrivateTasks: private})
	defer p.Close()
	depth := 0
	if private {
		depth = ladderDepth
	}
	var samples []float64
	for rep := 0; rep < 3; rep++ {
		r := testing.Benchmark(func(b *testing.B) {
			p.Run(func(w *core.Worker) int64 {
				for i := 0; i < depth; i++ {
					ports.SpawnNoop(w, 0)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pair(w)
				}
				b.StopTimer()
				for i := 0; i < depth; i++ {
					ports.JoinNoop(w)
				}
				return 0
			})
		})
		samples = append(samples, float64(r.T.Nanoseconds())/float64(r.N)/float64(pairs))
	}
	return samples
}

// genericNoop is the generic-path rung's task definition.
var genericNoop = core.Define1("noop", func(w *core.Worker, x int64) int64 { return x })

func genericPair(w *core.Worker) {
	genericNoop.Spawn(w, 1)
	genericNoop.Join(w)
}

func generatedPair(w *core.Worker) {
	ports.SpawnNoop(w, 1)
	ports.JoinNoop(w)
}

// ladderRung is one spawn/join rung: pair runs pairs spawn+join pairs
// on a private-task (private) or all-public pool.
type ladderRung struct {
	private bool
	pairs   int
	pair    func(w *core.Worker)
}

// ladderRungs holds the measurement procedure of every ladder key.
var ladderRungs = map[string]ladderRung{
	"spawn_join_generic_private_ns":   {true, 1, genericPair},
	"spawn_join_generated_private_ns": {true, 1, generatedPair},
	"spawn_join_generic_public_ns":    {false, 1, genericPair},
	"spawn_join_generated_public_ns":  {false, 1, generatedPair},
	"spawn_join_generated_batch_ns": {true, batchWindow, func(w *core.Worker) {
		ports.SpawnNoopN(w, 0, batchWindow)
		ports.JoinNoopN(w, batchWindow)
	}},
}

// measureLadderKey runs key's rung and returns its ns-per-pair
// samples; ok is false when key has no measurement procedure.
func measureLadderKey(key string) (samples []float64, ok bool) {
	r, ok := ladderRungs[key]
	if !ok {
		return nil, false
	}
	return ladder(r.private, r.pairs, r.pair), true
}

// stealLatencyUs measures publication-to-execution latency on a
// two-worker pool: the owner publishes one task, then yields until the
// thief's execution of its body stamps a timestamp. The number
// includes wake-from-idle cost — it is the latency a real victim's
// first stolen task pays. Rounds that hit the deadline (a pathologically
// descheduled thief) are dropped; ok is false if every round did.
func stealLatencyUs() (float64, bool) {
	p := core.NewPool(core.Options{Workers: 2, MaxIdleSleep: 50 * time.Microsecond})
	defer p.Close()
	var stamp atomic.Int64
	probe := core.Define1("stealprobe", func(w *core.Worker, x int64) int64 {
		stamp.Store(time.Now().UnixNano())
		return 0
	})
	const rounds = 50
	var total int64
	var n int
	p.Run(func(w *core.Worker) int64 {
		for round := 0; round < rounds+1; round++ {
			stamp.Store(0)
			t0 := time.Now().UnixNano()
			probe.Spawn(w, 0)
			deadline := t0 + (2 * time.Second).Nanoseconds()
			for stamp.Load() == 0 && time.Now().UnixNano() < deadline {
				runtime.Gosched()
			}
			if ts := stamp.Load(); ts != 0 && round > 0 { // round 0 warms the pool
				total += ts - t0
				n++
			}
			probe.Join(w)
		}
		return 0
	})
	if n == 0 {
		return 0, false
	}
	return float64(total) / float64(n) / float64(time.Microsecond), true
}

// fibBackendMs times fib(28) via the registry's RunRec on a backend,
// reps times, checking each result against the serial reference.
func fibBackendMs(s sched.Scheduler, reps int) ([]float64, error) {
	pool := s.NewPool(sched.Options{Workers: 4, PrivateTasks: true})
	defer pool.Close()
	job := fibw.Job(28, 1)
	want := fibw.Serial(28)
	return timeMs(reps, func() error {
		if got := pool.RunRec(job); got != want {
			return fmt.Errorf("%s: fib(28) = %d, want %d", s.Name(), got, want)
		}
		return nil
	})
}

// timeMs runs f reps times and returns each run's wall time in ms.
func timeMs(reps int, f func() error) ([]float64, error) {
	var samples []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		samples = append(samples, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return samples, nil
}

// gateKeys is the set the perf gate re-measures: the single-worker
// spawn/join ladder — tight, repeatable numbers. The wall-clock fib
// and steal-latency keys are recorded for trend reading but not gated;
// on shared runners they swing far beyond any useful tolerance.
var gateKeys = []string{
	"spawn_join_generic_private_ns",
	"spawn_join_generated_private_ns",
	"spawn_join_generic_public_ns",
	"spawn_join_generated_public_ns",
	"spawn_join_generated_batch_ns",
}

// runRegistryBench produces BENCH_registry.json: the generic-vs-
// generated ladder, steal latency, fib(28) wall time on every
// registered backend, and the core idle-engine measurements.
func runRegistryBench(path string) error {
	e, restore := benchEnv(4, "")
	defer restore()
	rep := &report{
		Env: e,
		Gate: &gate{
			Keys:                    gateKeys,
			Tolerance:               0.05,
			Ceilings:                map[string]float64{"spawn_join_generated_private_ns": 15},
			MaxGeneratedOverGeneric: 1.10,
		},
		Notes: map[string]string{
			"spawn_join":    fmt.Sprintf("ns per spawn+join pair, single worker, best of 3; private keys measured at depth %d (past the InitialPublic prefix), batch key per pair over windows of %d", ladderDepth, batchWindow),
			"steal_latency": "µs from publishing a task to the thief executing it, 2 workers, includes wake-from-idle",
			"fib28":         "best-of-2 wall ms, fib(28) via the registry's RunRec, 4 workers",
			"gate":          "make perfgate re-measures gate.keys and fails on >tolerance regression vs this file; override with WOOL_PERFGATE_TOLERANCE=0.15 on noisy runners or skip with WOOL_PERFGATE_SKIP=1",
			"fib28_parking": "best-of-3 wall ms, fib(28), 4 workers, private tasks, hand-written wool kernel with parking forced on or off",
			"idle_region":   "µs per small stress region: launched against a fully parked pool vs warm",
			"idle_cpu":      "process CPU ms consumed over a 200ms quiescent window, 8 workers",
			"counters":      "scheduler counters over 10 stress(8,256)x4 regions on 4 private-task workers with a tight public boundary, parking between regions",
		},
	}

	fmt.Println("registry: spawn/join ladder (generic vs generated)")
	for _, key := range gateKeys {
		samples, _ := measureLadderKey(key)
		r := bestOf(key, "ns", samples, labels{})
		rep.Records = append(rep.Records, r)
		fmt.Printf("  %-36s %8.2f\n", key, r.Value)
	}

	fmt.Println("registry: steal latency")
	if us, ok := stealLatencyUs(); ok {
		rep.Records = append(rep.Records, record{Key: "steal_latency_us", Unit: "us", Value: us})
		fmt.Printf("  %-36s %8.2f\n", "steal_latency_us", us)
	} else {
		fmt.Println("  steal_latency_us: no round completed; omitted")
	}

	fmt.Println("registry: fib(28) per backend")
	for _, s := range sched.All() {
		samples, err := fibBackendMs(s, 2)
		if err != nil {
			return err
		}
		r := bestOf("fib28_ms", "ms", samples, labels{Backend: s.Name()})
		rep.Records = append(rep.Records, r)
		fmt.Printf("  %-36s %8.1f\n", "fib28_ms "+s.Name(), r.Value)
	}

	for _, r := range coreRecords() {
		rep.Records = append(rep.Records, r)
		fmt.Printf("  %-36s %8.2f\n", r.Key, r.Value)
	}
	return writeReport(path, rep)
}

// runPerfGate re-measures the baseline's gate keys and fails on
// regression: relative vs the committed value, absolute vs the
// ceilings, and the generated/generic ratio bound.
func runPerfGate(path string) error {
	if os.Getenv("WOOL_PERFGATE_SKIP") == "1" {
		fmt.Println("perfgate: skipped (WOOL_PERFGATE_SKIP=1)")
		return nil
	}
	base, err := readReport(path)
	if err != nil {
		return fmt.Errorf("perfgate: reading baseline: %w", err)
	}
	if base.Gate == nil {
		return fmt.Errorf("perfgate: baseline %s has no gate", path)
	}
	tol := base.Gate.Tolerance
	if s := os.Getenv("WOOL_PERFGATE_TOLERANCE"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("perfgate: bad WOOL_PERFGATE_TOLERANCE %q: %w", s, err)
		}
		tol = v
	}

	_, restore := benchEnv(4, "")
	defer restore()

	measured := map[string]float64{}
	var failures []string
	keys := append([]string(nil), base.Gate.Keys...)
	sort.Strings(keys)
	fmt.Printf("perfgate: baseline %s, tolerance %.0f%%\n", path, tol*100)
	for _, key := range keys {
		samples, ok := measureLadderKey(key)
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: gated key has no measurement procedure in this binary", key))
			continue
		}
		now := slices.Min(samples)
		measured[key] = now
		b, ok := base.find(key, labels{})
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: gated key missing from baseline records", key))
			continue
		}
		was := b.Value
		delta := (now - was) / was
		status := "ok"
		if now > was*(1+tol) {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.2f → %.2f ns (%+.1f%%, tolerance %.0f%%)", key, was, now, delta*100, tol*100))
		} else if now < was*(1-tol) {
			status = "improved — consider refreshing the baseline"
		}
		fmt.Printf("  %-36s %8.2f → %8.2f  (%+6.1f%%)  %s\n", key, was, now, delta*100, status)
		if ceil, ok := base.Gate.Ceilings[key]; ok && now > ceil {
			failures = append(failures, fmt.Sprintf("%s: %.2f ns exceeds the absolute ceiling %.2f ns", key, now, ceil))
		}
	}
	if r := base.Gate.MaxGeneratedOverGeneric; r > 0 {
		gen, okG := measured["spawn_join_generated_private_ns"]
		gn, okN := measured["spawn_join_generic_private_ns"]
		if okG && okN && gen > gn*r {
			failures = append(failures, fmt.Sprintf("generated private pair (%.2f ns) is more than %.2fx the generic pair (%.2f ns)", gen, r, gn))
		}
	}
	if len(failures) > 0 {
		fmt.Println("perfgate: FAIL")
		for _, f := range failures {
			fmt.Println("  " + f)
		}
		return fmt.Errorf("perfgate: %d check(s) failed (WOOL_PERFGATE_TOLERANCE / WOOL_PERFGATE_SKIP=1 override for noisy runners)", len(failures))
	}
	fmt.Println("perfgate: ok")
	return nil
}
