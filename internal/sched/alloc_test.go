package sched_test

import (
	"testing"

	"gowool/internal/sched"
	"gowool/internal/workloads/fibw"
)

// TestAllocsPerCall pins the allocations one RunRec (fib(8)) and one
// RunRange (64 indices) call costs on a 1-worker pool, per backend.
// The ceilings are the counts the per-backend adapters had when they
// were folded into one generic pool type; they are upper bounds, so
// work that removes per-call allocations (prepared jobs) only has to
// lower them. gonative is absent: its goroutine forks allocate
// according to the Go runtime's scheduling.
func TestAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state")
	}
	ceilings := []struct {
		name     string
		rec, rng float64
	}{
		{"wool", 4, 4},
		{"woolgen", 1, 1},
		{"chaselev", 4, 4},
		{"locksched", 4, 4},
		{"cilk", 234, 444},
		{"omp", 135, 7},
	}
	rec := fibw.Job(8, 1)
	rng := sched.RangeJob{Name: "iota", N: 64, Leaf: func(i int64) int64 { return i }}
	for _, c := range ceilings {
		t.Run(c.name, func(t *testing.T) {
			s, ok := sched.Lookup(c.name)
			if !ok {
				t.Fatalf("%s not registered", c.name)
			}
			p := s.NewPool(sched.Options{Workers: 1})
			defer p.Close()
			if got := testing.AllocsPerRun(100, func() { p.RunRec(rec) }); got > c.rec {
				t.Errorf("RunRec: %v allocs per call, ceiling %v", got, c.rec)
			}
			if got := testing.AllocsPerRun(100, func() { p.RunRange(rng) }); got > c.rng {
				t.Errorf("RunRange: %v allocs per call, ceiling %v", got, c.rng)
			}
		})
	}
}
