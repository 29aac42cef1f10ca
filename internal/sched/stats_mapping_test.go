package sched_test

import (
	"reflect"
	"runtime"
	"testing"

	"gowool/internal/chaselev"
	"gowool/internal/cilkstyle"
	"gowool/internal/core"
	"gowool/internal/locksched"
	"gowool/internal/ompstyle"
	"gowool/internal/sched"
	"gowool/internal/workloads/stress"
)

// nativeStats spells out, per backend, how the native counters map
// onto the normalized Stats: which native counter feeds each field and
// the exact Extra key set. TestStatsMapping holds every backend's
// Pool.Stats to it, so a mapping cannot silently drop or re-map a
// counter.
var nativeStats = map[string]func(native any) sched.Stats{
	"wool":    woolStats,
	"woolgen": woolStats,
	"chaselev": func(native any) sched.Stats {
		s := native.(*chaselev.Pool).Stats()
		return sched.Stats{
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
	"locksched": func(native any) sched.Stats {
		s := native.(*locksched.Pool).Stats()
		return sched.Stats{
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
	"cilk": func(native any) sched.Stats {
		s := native.(*cilkstyle.Pool).Stats()
		return sched.Stats{
			Spawns:        s.Spawns,
			Steals:        s.Steals,
			StealAttempts: s.StealAttempts,
			Extra: map[string]int64{
				"suspends": s.Suspends,
				"resumes":  s.Resumes,
			},
		}
	},
	"omp": func(native any) sched.Stats {
		s := native.(*ompstyle.Pool).Stats()
		return sched.Stats{
			Spawns: s.Spawns,
			Extra: map[string]int64{
				"executed":    s.Executed,
				"wait_loops":  s.WaitLoops,
				"chunks_run":  s.ChunksRun,
				"max_queued":  s.MaxQueued,
				"lock_passes": s.LockPasses,
			},
		}
	},
}

func woolStats(native any) sched.Stats {
	s := native.(*core.Pool).Stats()
	return sched.Stats{
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

// TestStatsMapping runs a steal-heavy tree and a range on every
// backend that keeps counters, closes the pool so no idle worker is
// still counting, and checks Pool.Stats against the native counters
// read through Native. Backends that steal retry on a fresh pool until
// a run has stolen, so the steal fields are compared non-zero.
func TestStatsMapping(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rec := stress.Job(8, 256, 1)
	rng := sched.RangeJob{Name: "iota", N: 256, Leaf: func(i int64) int64 { return i }}
	for _, s := range sched.All() {
		if !s.Caps().Stats {
			continue
		}
		t.Run(s.Name(), func(t *testing.T) {
			mapping, ok := nativeStats[s.Name()]
			if !ok {
				t.Fatalf("no native counter mapping pinned for %s", s.Name())
			}
			steals := len(s.Caps().StealPolicies) > 0
			for try := 0; ; try++ {
				p := s.NewPool(sched.Options{Workers: 4})
				p.RunRec(rec)
				p.RunRange(rng)
				p.Close()
				got, want := p.Stats(), mapping(p.Native())
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Stats() = %+v\nnative mapping = %+v", got, want)
				}
				if want.Spawns == 0 {
					t.Fatalf("no spawns counted: %+v", want)
				}
				if !steals || want.Steals > 0 {
					return
				}
				if try == 20 {
					t.Fatalf("no steal in %d runs: %+v", try+1, want)
				}
			}
		})
	}
}
