package sched

import "gowool/internal/ompstyle"

// omp registers the centralized OpenMP-style pool. Faithful to how
// the paper's OpenMP versions are written, RunRange uses the
// work-sharing loop (ParallelFor) rather than a task tree — static
// schedule for regular ranges, dynamic for irregular ones — and RunRec
// uses tasks with taskwait.
var omp = &backend[*ompstyle.Pool]{
	name:  "omp",
	blurb: "centralized pool, icc OpenMP 3.0-style: closure tasks through one global lock, taskwait helps, loops by work-sharing",
	caps: Caps{
		Steal:       "one lock-protected central queue; any idle worker takes the oldest task",
		WorkSharing: true,
		Stats:       true,
		Trace:       true,
		Chaos:       true,
		// No StealPolicies: a central queue has no victims to select.
	},
	newPool: func(o Options) *ompstyle.Pool {
		return ompstyle.NewPool(ompstyle.Options{
			Workers:      o.Workers,
			QueueSize:    o.StackSize,
			MaxIdleSleep: o.MaxIdleSleep,
			Trace:        o.Trace,
			Chaos:        o.Chaos,
		})
	},
	stats: func(p *ompstyle.Pool) Stats {
		s := p.Stats()
		return Stats{
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
	runRec:   ompRunRec,
	runRange: ompRunRange,
}

// ompRec is the task-recursive body: spawn one child task, compute the
// other branch inline, taskwait — how the paper's OpenMP fib is
// written.
func ompRec(tc *ompstyle.Context, j *RecJob, n int64) int64 {
	if v, ok := j.Leaf(n); ok {
		return v
	}
	first, second := j.Split(n)
	var a int64
	tc.SpawnTask(func(tc2 *ompstyle.Context) { a = ompRec(tc2, j, second) })
	b := ompRec(tc, j, first)
	tc.Taskwait()
	return a + b
}

func ompRunRec(p *ompstyle.Pool, j RecJob) int64 {
	return p.Run(func(tc *ompstyle.Context) int64 {
		return sumReps(j.Reps, func() int64 { return ompRec(tc, &j, j.Root) })
	})
}

func ompRunRange(p *ompstyle.Pool, j RangeJob) int64 {
	out := make([]int64, j.N)
	return p.Run(func(tc *ompstyle.Context) int64 {
		schedule, chunk := ompstyle.Static, int64(0)
		if j.Irregular {
			schedule, chunk = ompstyle.Dynamic, 4
		}
		return sumReps(j.Reps, func() int64 {
			tc.ParallelFor(0, j.N, schedule, chunk, func(i int64) { out[i] = j.Leaf(i) })
			var total int64
			for _, v := range out {
				total += v
			}
			return total
		})
	})
}
