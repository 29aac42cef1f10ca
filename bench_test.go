package gowool_test

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper (regenerating it at Quick scale — run the full sweeps
// with cmd/woolbench -scale full), plus the micro benchmarks behind
// the headline numbers: spawn/join cost per scheduler rung (Table II),
// per-system inlined overhead (Table III) and the fib/stress kernels
// (Figure 1).
//
// The experiment benchmarks do a complete table/figure regeneration
// per iteration; run them as
//
//	go test -bench 'BenchmarkTable|BenchmarkFig' -benchtime 1x
//
// The micro benchmarks are ordinary per-op measurements.

import (
	"io"
	"testing"
	"time"

	"gowool"
	"gowool/internal/chaselev"
	"gowool/internal/experiments"
	"gowool/internal/gen/ports"
	"gowool/internal/locksched"
	"gowool/internal/ompstyle"
	"gowool/internal/sched"
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/stress"
)

// runExperiment regenerates one paper artifact per b.N iteration.
func runExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(experiments.Quick, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table I (workload characteristics).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2 regenerates Table II (inlined-task ladder, native).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3 regenerates Table III (inlined and stolen costs).
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4 regenerates Table IV (steal-cost model vs measured).
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig1 regenerates Figure 1 (fib and stress speedups).
func BenchmarkFig1(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig4 regenerates Figure 4 (steal implementation ladder).
func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5 regenerates Figure 5 (the full speedup grid).
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6 (CPU-time breakdown).
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// --- Table II micro benchmarks: ns per spawn+join pair, per rung. ---

// spawnJoinDepth places the measured pair past the InitialPublic
// prefix on private-task pools: the first descriptors of a run are
// public even with PrivateTasks on, so a depth-0 loop measures the
// public-slot path, not the private plain-stores path.
const spawnJoinDepth = 4

// atDepth runs f with depth outstanding noop descriptors on the task
// stack (spawned and joined outside the timer).
func atDepth(b *testing.B, w *gowool.Worker, noop *gowool.TaskDef1, f func()) {
	for i := 0; i < spawnJoinDepth; i++ {
		noop.Spawn(w, 0)
	}
	b.ResetTimer()
	f()
	b.StopTimer()
	for i := 0; i < spawnJoinDepth; i++ {
		noop.Join(w)
	}
}

// BenchmarkSpawnJoin/private is the paper's 3-cycle row: private
// descriptors, no atomics on the join path.
func BenchmarkSpawnJoin(b *testing.B) {
	b.Run("private", func(b *testing.B) {
		p := gowool.NewPool(gowool.Options{Workers: 1, PrivateTasks: true})
		defer p.Close()
		noop := gowool.Define1("noop", func(w *gowool.Worker, x int64) int64 { return x })
		b.ReportAllocs()
		p.Run(func(w *gowool.Worker) int64 {
			atDepth(b, w, noop, func() {
				for i := 0; i < b.N; i++ {
					noop.Spawn(w, 1)
					noop.Join(w)
				}
			})
			return 0
		})
	})
	b.Run("generated-private", func(b *testing.B) {
		p := gowool.NewPool(gowool.Options{Workers: 1, PrivateTasks: true})
		defer p.Close()
		noop := gowool.Define1("noop", func(w *gowool.Worker, x int64) int64 { return x })
		b.ReportAllocs()
		p.Run(func(w *gowool.Worker) int64 {
			atDepth(b, w, noop, func() {
				for i := 0; i < b.N; i++ {
					ports.SpawnNoop(w, 1)
					ports.JoinNoop(w)
				}
			})
			return 0
		})
	})
	b.Run("generated-batch", func(b *testing.B) {
		p := gowool.NewPool(gowool.Options{Workers: 1, PrivateTasks: true})
		defer p.Close()
		noop := gowool.Define1("noop", func(w *gowool.Worker, x int64) int64 { return x })
		b.ReportAllocs()
		p.Run(func(w *gowool.Worker) int64 {
			atDepth(b, w, noop, func() {
				for i := 0; i < b.N; i++ {
					ports.SpawnNoopN(w, 0, 16)
					ports.JoinNoopN(w, 16)
				}
			})
			return 0
		})
	})
	b.Run("public", func(b *testing.B) {
		p := gowool.NewPool(gowool.Options{Workers: 1})
		defer p.Close()
		noop := gowool.Define1("noop", func(w *gowool.Worker, x int64) int64 { return x })
		b.ReportAllocs()
		b.ResetTimer()
		p.Run(func(w *gowool.Worker) int64 {
			for i := 0; i < b.N; i++ {
				noop.Spawn(w, 1)
				noop.Join(w)
			}
			return 0
		})
	})
	b.Run("generated-public", func(b *testing.B) {
		p := gowool.NewPool(gowool.Options{Workers: 1})
		defer p.Close()
		b.ReportAllocs()
		b.ResetTimer()
		p.Run(func(w *gowool.Worker) int64 {
			for i := 0; i < b.N; i++ {
				ports.SpawnNoop(w, 1)
				ports.JoinNoop(w)
			}
			return 0
		})
	})
	b.Run("generic-join", func(b *testing.B) {
		p := gowool.NewPool(gowool.Options{Workers: 1})
		defer p.Close()
		noop := gowool.Define1("noop", func(w *gowool.Worker, x int64) int64 { return x })
		b.ResetTimer()
		p.Run(func(w *gowool.Worker) int64 {
			for i := 0; i < b.N; i++ {
				noop.Spawn(w, 1)
				w.JoinAny()
			}
			return 0
		})
	})
	b.Run("lock-base", func(b *testing.B) {
		p := locksched.NewPool(locksched.Options{Workers: 1})
		defer p.Close()
		noop := locksched.Define1("noop", func(w *locksched.Worker, x int64) int64 { return x })
		b.ResetTimer()
		p.Run(func(w *locksched.Worker) int64 {
			for i := 0; i < b.N; i++ {
				noop.Spawn(w, 1)
				noop.Join(w)
			}
			return 0
		})
	})
	b.Run("deque", func(b *testing.B) {
		p := chaselev.NewPool(chaselev.Options{Workers: 1})
		defer p.Close()
		noop := chaselev.Define1("noop", func(w *chaselev.Worker, x int64) int64 { return x })
		b.ResetTimer()
		p.Run(func(w *chaselev.Worker) int64 {
			for i := 0; i < b.N; i++ {
				noop.Spawn(w, 1)
				noop.Join(w)
			}
			return 0
		})
	})
	b.Run("central", func(b *testing.B) {
		p := ompstyle.NewPool(ompstyle.Options{Workers: 1})
		defer p.Close()
		b.ResetTimer()
		p.Run(func(tc *ompstyle.Context) int64 {
			for i := 0; i < b.N; i++ {
				tc.SpawnTask(func(*ompstyle.Context) {})
				tc.Taskwait()
			}
			return 0
		})
	})
}

// BenchmarkIdleWake measures launching a small parallel region against
// a pool whose thief has parked on the idle engine, so each iteration
// pays the park→wake→steal round trip on top of the region itself.
func BenchmarkIdleWake(b *testing.B) {
	p := gowool.NewPool(gowool.Options{Workers: 2, PrivateTasks: true,
		MaxIdleSleep: 50 * time.Microsecond})
	defer p.Close()
	tree := stress.NewWool()
	stress.RunWool(p, tree, 4, 64, 1) // warm up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		deadline := time.Now().Add(2 * time.Second)
		for p.ParkedWorkers() < 1 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
		if p.ParkedWorkers() < 1 {
			b.Fatal("thief never parked between iterations")
		}
		b.StartTimer()
		stress.RunWool(p, tree, 4, 64, 1)
	}
}

// --- Figure 1 kernels, native. ---

// BenchmarkFibNative runs the no-cutoff fib on the real scheduler.
func BenchmarkFibNative(b *testing.B) {
	p := gowool.NewPool(gowool.Options{PrivateTasks: true})
	defer p.Close()
	fib := fibw.NewWool()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(func(w *gowool.Worker) int64 { return fib.Call(w, 25) })
	}
}

// BenchmarkFibSerial is the no-task baseline for BenchmarkFibNative.
func BenchmarkFibSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fibw.Serial(25)
	}
}

// BenchmarkStressRegion measures one small parallel region (the
// paper's load-balancing stress kernel) end to end.
func BenchmarkStressRegion(b *testing.B) {
	p := gowool.NewPool(gowool.Options{PrivateTasks: true})
	defer p.Close()
	tree := stress.NewWool()
	b.ResetTimer()
	stress.RunWool(p, tree, 8, 256, int64(b.N))
}

// --- Ablation benches (DESIGN.md §7). ---

// BenchmarkAblationWaitPolicy compares what a blocked join does while
// its task is stolen: leapfrog (Wool), steal-anywhere (TBB) or plain
// spinning, on the deque scheduler where all three are options.
func BenchmarkAblationWaitPolicy(b *testing.B) {
	for _, wp := range []chaselev.WaitPolicy{chaselev.WaitLeapfrog, chaselev.WaitSteal, chaselev.WaitSpin} {
		b.Run(wp.String(), func(b *testing.B) {
			p := chaselev.NewPool(chaselev.Options{Workers: 2, Wait: wp})
			defer p.Close()
			fib := sched.BuildRec(chaselev.Define1, fibw.Job(18, 1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Run(func(w *chaselev.Worker) int64 { return fib.Call(w, 18) })
			}
		})
	}
}

// BenchmarkAblationTripWire sweeps the private-task publication
// parameters: how much slack the trip wire hands out per notification.
func BenchmarkAblationTripWire(b *testing.B) {
	for _, amount := range []int{1, 2, 4, 8} {
		b.Run(string(rune('0'+amount)), func(b *testing.B) {
			p := gowool.NewPool(gowool.Options{
				Workers: 2, PrivateTasks: true, PublishAmount: amount,
			})
			defer p.Close()
			tree := stress.NewWool()
			b.ResetTimer()
			stress.RunWool(p, tree, 7, 256, int64(b.N))
		})
	}
}

// BenchmarkAblationIdlePolicy compares idle-worker back-off policies:
// pure spin+yield (a dedicated machine) against capped sleeping (a
// shared host), measured on repeated small parallel regions where
// steal latency is the signal.
func BenchmarkAblationIdlePolicy(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		sleep time.Duration
	}{
		{"spin-yield", -1},
		{"sleep-200us", 200 * time.Microsecond},
		{"sleep-5ms", 5 * time.Millisecond},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			p := gowool.NewPool(gowool.Options{Workers: 2, MaxIdleSleep: cfg.sleep})
			defer p.Close()
			tree := stress.NewWool()
			b.ResetTimer()
			stress.RunWool(p, tree, 6, 256, int64(b.N))
		})
	}
}

// BenchmarkAblationStealLocus compares the synchronization locus:
// descriptor-state (direct task stack) vs indices (deque) vs lock, on
// the same spawn-intensive kernel with one worker (inline-path cost).
func BenchmarkAblationStealLocus(b *testing.B) {
	b.Run("on-task", func(b *testing.B) {
		p := gowool.NewPool(gowool.Options{Workers: 1})
		defer p.Close()
		fib := fibw.NewWool()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Run(func(w *gowool.Worker) int64 { return fib.Call(w, 20) })
		}
	})
	b.Run("on-indices", func(b *testing.B) {
		p := chaselev.NewPool(chaselev.Options{Workers: 1})
		defer p.Close()
		fib := sched.BuildRec(chaselev.Define1, fibw.Job(20, 1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Run(func(w *chaselev.Worker) int64 { return fib.Call(w, 20) })
		}
	})
	b.Run("on-lock", func(b *testing.B) {
		p := locksched.NewPool(locksched.Options{Workers: 1})
		defer p.Close()
		fib := sched.BuildRec(locksched.Define1, fibw.Job(20, 1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Run(func(w *locksched.Worker) int64 { return fib.Call(w, 20) })
		}
	})
}
