package sched

// The generic task-port layer: Go generics over the per-scheduler
// Define-style constructors, so a job body is written once and
// instantiated for any backend whose task definitions have the
// SPAWN/CALL/JOIN shape. A builder takes the backend's Define function
// (core.Define1, chaselev.Define1, locksched.Define1, ...); type
// inference resolves the worker and definition types from it, and the
// constraint checks that the resulting definition supports the idiom.

// Task1 is a task definition over one int64 argument for worker type
// W (the shape of core.TaskDef1, chaselev.TaskDef1, ...).
type Task1[W any] interface {
	Spawn(W, int64)
	Call(W, int64) int64
	Join(W) int64
}

// Task2 is a task definition over two int64 arguments.
type Task2[W any] interface {
	Spawn(W, int64, int64)
	Call(W, int64, int64) int64
	Join(W) int64
}

// TaskC3 is a task definition over a typed context pointer and three
// int64 arguments (the shape cholesky needs).
type TaskC3[W, C any] interface {
	Spawn(W, *C, int64, int64, int64)
	Call(W, *C, int64, int64, int64) int64
	Join(W) int64
}

// BuildRec instantiates a RecJob for any scheduler exposing a
// Define1-style constructor: spawn the second subproblem, call the
// first inline, join, sum (paper Figure 2).
func BuildRec[W any, D Task1[W]](define func(string, func(W, int64) int64) D, j RecJob) D {
	var d D
	d = define(j.Name, func(w W, n int64) int64 {
		if v, ok := j.Leaf(n); ok {
			return v
		}
		first, second := j.Split(n)
		d.Spawn(w, second)
		a := d.Call(w, first)
		b := d.Join(w)
		return a + b
	})
	return d
}

// BuildRange instantiates a RangeJob's balanced range splitter for any
// scheduler exposing a Define2-style constructor — the task tree
// Wool's loop constructs expand into, splitting [lo, hi) at the
// midpoint until single indices.
func BuildRange[W any, D Task2[W]](define func(string, func(W, int64, int64) int64) D, j RangeJob) D {
	var d D
	d = define(j.Name, func(w W, lo, hi int64) int64 {
		if hi-lo <= 1 {
			if hi <= lo {
				return 0
			}
			return j.Leaf(lo)
		}
		mid := (lo + hi) / 2
		d.Spawn(w, mid, hi)
		a := d.Call(w, lo, mid)
		b := d.Join(w)
		return a + b
	})
	return d
}
