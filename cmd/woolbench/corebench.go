package main

import (
	"fmt"
	"time"

	"gowool/internal/core"
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/stress"
)

// fibWallMs runs fib(n) reps times on a private-task pool with
// parking forced to the given mode and returns each run's wall ms.
func fibWallMs(workers int, mode core.ParkMode, n int64, reps int) []float64 {
	p := core.NewPool(core.Options{Workers: workers, PrivateTasks: true, Parking: mode})
	defer p.Close()
	fib := fibw.NewWool()
	samples, _ := timeMs(reps, func() error {
		p.Run(func(w *core.Worker) int64 { return fib.Call(w, n) })
		return nil
	})
	return samples
}

// waitParked polls until at least n workers are parked or the deadline
// expires.
func waitParked(p *core.Pool, n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for p.ParkedWorkers() < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// idleWakeUs measures a small parallel region launched against a fully
// parked pool (wake + steal latency included) vs the same region on a
// warm pool, in µs per region.
func idleWakeUs() (parked, warm float64, ok bool) {
	p := core.NewPool(core.Options{Workers: 2, PrivateTasks: true,
		MaxIdleSleep: 50 * time.Microsecond})
	defer p.Close()
	tree := stress.NewWool()
	region := func() { stress.RunWool(p, tree, 4, 64, 1) }
	region() // warm up code paths

	const rounds = 50
	var parkedTotal time.Duration
	for i := 0; i < rounds; i++ {
		if !waitParked(p, 1, 2*time.Second) {
			return 0, 0, false
		}
		t0 := time.Now()
		region()
		parkedTotal += time.Since(t0)
	}
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		region()
	}
	warmTotal := time.Since(t0)
	us := func(d time.Duration) float64 {
		return float64(d) / float64(rounds) / float64(time.Microsecond)
	}
	return us(parkedTotal), us(warmTotal), true
}

// idleCPUMs measures process CPU time consumed across a 200ms window
// while an 8-worker pool sits quiescent, in ms. requireParked gates on
// the idle engine; with parking off the pool sleep-polls through the
// window instead.
func idleCPUMs(mode core.ParkMode, requireParked bool) (float64, bool) {
	p := core.NewPool(core.Options{Workers: 8, Parking: mode,
		MaxIdleSleep: 50 * time.Microsecond})
	defer p.Close()
	fib := fibw.NewWool()
	p.Run(func(w *core.Worker) int64 { return fib.Call(w, 16) })
	if requireParked {
		if !waitParked(p, 7, 5*time.Second) {
			return 0, false
		}
	} else {
		time.Sleep(20 * time.Millisecond) // settle into the sleep rung
	}
	before, ok := processCPUTime()
	if !ok {
		return 0, false
	}
	time.Sleep(200 * time.Millisecond)
	after, _ := processCPUTime()
	return float64(after-before) / float64(time.Millisecond), true
}

// coreCounters runs a steal-heavy private-task stress workload and
// returns the aggregate scheduler counters.
func coreCounters() core.Stats {
	p := core.NewPool(core.Options{Workers: 4, PrivateTasks: true,
		InitialPublic: 1, TripDistance: 1, PublishAmount: 1,
		MaxIdleSleep: 50 * time.Microsecond})
	defer p.Close()
	tree := stress.NewWool()
	for i := 0; i < 10; i++ {
		stress.RunWool(p, tree, 8, 256, 4)
		// Let workers park between regions so Parks/Wakes are exercised.
		waitParked(p, 1, time.Second)
	}
	return p.Stats()
}

// coreRecords measures what only the core pool exposes: fib(28) with
// parking on vs off, region launch from a parked vs warm pool,
// quiescent CPU parked vs sleep-polling, and the scheduler counters of
// a steal-heavy stress sweep.
func coreRecords() []record {
	fmt.Println("core: fib(28) parking on vs off")
	recs := []record{
		bestOf("fib28_parking_on_ms", "ms", fibWallMs(4, core.ParkOn, 28, 3), labels{}),
		bestOf("fib28_parking_off_ms", "ms", fibWallMs(4, core.ParkOff, 28, 3), labels{}),
	}

	fmt.Println("core: wake latency")
	if parked, warm, ok := idleWakeUs(); ok {
		recs = append(recs,
			record{Key: "region_from_parked_us", Unit: "us", Value: parked},
			record{Key: "region_warm_us", Unit: "us", Value: warm})
	}

	fmt.Println("core: quiescent CPU")
	if ms, ok := idleCPUMs(core.ParkOn, true); ok {
		recs = append(recs, record{Key: "idle_cpu_parked_ms", Unit: "ms", Value: ms})
	}
	if ms, ok := idleCPUMs(core.ParkOff, false); ok {
		recs = append(recs, record{Key: "idle_cpu_sleep_poll_ms", Unit: "ms", Value: ms})
	}

	fmt.Println("core: counter sweep (stress, tight public boundary)")
	st := coreCounters()
	for _, c := range []struct {
		key string
		v   int64
	}{
		{"spawns", st.Spawns},
		{"steals", st.Steals},
		{"steal_attempts", st.StealAttempts},
		{"backoffs", st.Backoffs},
		{"publications", st.Publications},
		{"privatizations", st.Privatizations},
		{"retained_steals", st.RetainedSteals},
		{"parks", st.Parks},
		{"wakes", st.Wakes},
	} {
		recs = append(recs, record{Key: c.key, Unit: "count", Value: float64(c.v), Labels: labels{Workload: "stress"}})
	}
	return recs
}
