package locksched

// Task definitions mirror the core package's API so workloads port
// one-to-one between schedulers. Unlike the direct task stack there is
// no task-specific join advantage here — all joins pay the lock — but
// the inline path still calls the task function directly.

// TaskDef1 defines a task taking one int64.
type TaskDef1 struct {
	fn   func(*Worker, int64) int64
	wrap TaskFunc
	name string
}

// Define1 creates the routines for fn.
func Define1(name string, fn func(*Worker, int64) int64) *TaskDef1 {
	d := &TaskDef1{fn: fn, name: name}
	d.wrap = func(w *Worker, t *Task) { t.res = fn(w, t.a0) }
	return d
}

// Spawn pushes a task on w's pool. When the pool is full the spawn
// degrades to inline serial execution (the child runs now, the join
// replays its result) unless Options.StrictOverflow is set.
func (d *TaskDef1) Spawn(w *Worker, a0 int64) {
	t := w.push()
	if t == nil {
		w.noteOverflowInlined(d.fn(w, a0))
		return
	}
	t.a0 = a0
	t.fn = d.wrap
	w.spawn(t)
}

// Call invokes the task function directly.
func (d *TaskDef1) Call(w *Worker, a0 int64) int64 { return d.fn(w, a0) }

// Join joins with the most recently spawned task.
func (d *TaskDef1) Join(w *Worker) int64 {
	t, inline := w.joinAcquire()
	if inline {
		return d.fn(w, t.a0)
	}
	return t.res
}

// TaskDef2 defines a task taking two int64 arguments.
type TaskDef2 struct {
	fn   func(*Worker, int64, int64) int64
	wrap TaskFunc
	name string
}

// Define2 creates the routines for fn.
func Define2(name string, fn func(*Worker, int64, int64) int64) *TaskDef2 {
	d := &TaskDef2{fn: fn, name: name}
	d.wrap = func(w *Worker, t *Task) { t.res = fn(w, t.a0, t.a1) }
	return d
}

// Spawn pushes a task on w's pool (inline on overflow, see TaskDef1).
func (d *TaskDef2) Spawn(w *Worker, a0, a1 int64) {
	t := w.push()
	if t == nil {
		w.noteOverflowInlined(d.fn(w, a0, a1))
		return
	}
	t.a0, t.a1 = a0, a1
	t.fn = d.wrap
	w.spawn(t)
}

// Call invokes the task function directly.
func (d *TaskDef2) Call(w *Worker, a0, a1 int64) int64 { return d.fn(w, a0, a1) }

// Join joins with the most recently spawned task.
func (d *TaskDef2) Join(w *Worker) int64 {
	t, inline := w.joinAcquire()
	if inline {
		return d.fn(w, t.a0, t.a1)
	}
	return t.res
}

// TaskDefC3 defines a task taking a typed context pointer and three int64s.
type TaskDefC3[C any] struct {
	fn   func(*Worker, *C, int64, int64, int64) int64
	wrap TaskFunc
	name string
}

// DefineC3 creates the routines for fn.
func DefineC3[C any](name string, fn func(*Worker, *C, int64, int64, int64) int64) *TaskDefC3[C] {
	d := &TaskDefC3[C]{fn: fn, name: name}
	d.wrap = func(w *Worker, t *Task) { t.res = fn(w, t.ctx.(*C), t.a0, t.a1, t.a2) }
	return d
}

// Spawn pushes a task on w's pool (inline on overflow, see TaskDef1).
func (d *TaskDefC3[C]) Spawn(w *Worker, c *C, a0, a1, a2 int64) {
	t := w.push()
	if t == nil {
		w.noteOverflowInlined(d.fn(w, c, a0, a1, a2))
		return
	}
	t.ctx = c
	t.a0, t.a1, t.a2 = a0, a1, a2
	t.fn = d.wrap
	w.spawn(t)
}

// Call invokes the task function directly.
func (d *TaskDefC3[C]) Call(w *Worker, c *C, a0, a1, a2 int64) int64 {
	return d.fn(w, c, a0, a1, a2)
}

// Join joins with the most recently spawned task.
func (d *TaskDefC3[C]) Join(w *Worker) int64 {
	t, inline := w.joinAcquire()
	if inline {
		return d.fn(w, t.ctx.(*C), t.a0, t.a1, t.a2)
	}
	return t.res
}

// Name returns the definition's diagnostic name.
func (d *TaskDef1) Name() string { return d.name }

// Name returns the definition's diagnostic name.
func (d *TaskDef2) Name() string { return d.name }

// Name returns the definition's diagnostic name.
func (d *TaskDefC3[C]) Name() string { return d.name }
