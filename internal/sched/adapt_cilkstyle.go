package sched

import (
	"gowool/internal/cilkstyle"
	"gowool/internal/steal"
)

// cilk registers the steal-parent continuation scheduler (the Cilk++
// stand-in). Its task functions are explicit continuation state
// machines, so its job entry points are hand-written frame recursions
// — the shape Cilk++'s compiler generates for
//
//	a = spawn f(x); b = spawn f(y); sync; return a+b;
var cilk = &backend[*cilkstyle.Pool]{
	name:  "cilk",
	blurb: "steal-parent continuations, Cilk++-style: cactus-stack frames, locked deques of continuations, constant task-pool space in spawn loops",
	caps: Caps{
		Steal: "lock on the victim's continuation deque; steal parent (the continuation), oldest first",
		Stats: true,
		Trace: true,
		Chaos: true,
		// Steal-parent holds at most one ready continuation per nesting
		// level, so there is no batch to take: amount is always one.
		StealPolicies: steal.Policies(),
		StealAmounts:  []string{steal.AmountOne},
	},
	newPool: func(o Options) *cilkstyle.Pool {
		return cilkstyle.NewPool(cilkstyle.Options{
			Workers:      o.Workers,
			DequeSize:    o.StackSize,
			MaxIdleSleep: o.MaxIdleSleep,
			Trace:        o.Trace,
			Chaos:        o.Chaos,
			Steal:        o.Steal,
		})
	},
	stats: func(p *cilkstyle.Pool) Stats {
		s := p.Stats()
		return Stats{
			Spawns:        s.Spawns,
			Steals:        s.Steals,
			StealAttempts: s.StealAttempts,
			Extra: map[string]int64{
				"suspends": s.Suspends,
				"resumes":  s.Resumes,
			},
		}
	},
	runRec: func(p *cilkstyle.Pool, j RecJob) int64 {
		return runCilk(p, j.Reps, recNode{&j, j.Root})
	},
	runRange: func(p *cilkstyle.Pool, j RangeJob) int64 {
		return runCilk(p, j.Reps, rangeNode{&j, 0, j.N})
	},
}

// cilkNode is one node of a job's recursion: its leaf value, or the
// two subproblems its frame spawns before the sync.
type cilkNode[N any] interface {
	leaf() (int64, bool)
	split() (first, second N)
}

// recNode is a RecJob node.
type recNode struct {
	job *RecJob
	n   int64
}

func (r recNode) leaf() (int64, bool) { return r.job.Leaf(r.n) }

func (r recNode) split() (recNode, recNode) {
	first, second := r.job.Split(r.n)
	return recNode{r.job, first}, recNode{r.job, second}
}

// rangeNode is a balanced range-splitter node of a RangeJob.
type rangeNode struct {
	job    *RangeJob
	lo, hi int64
}

func (r rangeNode) leaf() (int64, bool) {
	if r.hi-r.lo > 1 {
		return 0, false
	}
	if r.hi > r.lo {
		return r.job.Leaf(r.lo), true
	}
	return 0, true
}

func (r rangeNode) split() (rangeNode, rangeNode) {
	mid := (r.lo + r.hi) / 2
	return rangeNode{r.job, r.lo, mid}, rangeNode{r.job, mid, r.hi}
}

// cilkFrame is the cactus-stack frame of one node: spawn both
// subproblems, sync, sum.
type cilkFrame[N cilkNode[N]] struct {
	cilkstyle.Frame
	node N
	a, b int64
	res  *int64
}

func (f *cilkFrame[N]) step0(w *cilkstyle.Worker) cilkstyle.Step {
	if v, ok := f.node.leaf(); ok {
		*f.res = v
		return w.Return(&f.Frame)
	}
	first, _ := f.node.split()
	return f.spawn(w, first, &f.a, f.step1)
}

func (f *cilkFrame[N]) step1(w *cilkstyle.Worker) cilkstyle.Step {
	_, second := f.node.split()
	return f.spawn(w, second, &f.b, f.step2)
}

func (f *cilkFrame[N]) step2(w *cilkstyle.Worker) cilkstyle.Step {
	return w.Sync(&f.Frame, f.step3)
}

func (f *cilkFrame[N]) step3(w *cilkstyle.Worker) cilkstyle.Step {
	*f.res = f.a + f.b
	return w.Return(&f.Frame)
}

// spawn spawns the child frame for n, continuing with next.
func (f *cilkFrame[N]) spawn(w *cilkstyle.Worker, n N, res *int64, next cilkstyle.Step) cilkstyle.Step {
	child := &cilkFrame[N]{node: n, res: res}
	cilkstyle.NewChild(&f.Frame, &child.Frame)
	return w.Spawn(&f.Frame, next, child.step0)
}

// runCilk runs the recursion from root once per repetition.
func runCilk[N cilkNode[N]](p *cilkstyle.Pool, reps int64, root N) int64 {
	return sumReps(reps, func() int64 {
		var res int64
		f := &cilkFrame[N]{node: root, res: &res}
		p.Run(&f.Frame, f.step0)
		return res
	})
}
