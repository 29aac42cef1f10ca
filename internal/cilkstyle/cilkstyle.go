// Package cilkstyle is a steal-parent (continuation-stealing) task
// scheduler in the mould of Cilk++, the third system the paper
// evaluates. Where Wool and TBB make the spawned child stealable,
// here a spawn executes the child immediately and it is the parent's
// continuation that thieves may take (paper Section I-a).
//
// Faithful to the paper's characterization of Cilk++, this scheduler:
//
//   - keeps activation frames on a cactus stack: frames are
//     heap-allocated continuation state, not contiguous Go stack, so a
//     thief can resume a parent from an arbitrary frame;
//   - uses locks for thief/victim synchronization (the paper observes
//     Cilk++ "extensive locking (up to two task descriptors and the
//     victim's worker descriptor)");
//   - pays a wrapper/closure cost on every spawn (Cilk++ "spawning goes
//     through a wrapper function").
//
// In exchange, it inherits steal-parent's strong space guarantee: in
//
//	for p := list; p != nil; p = p.next { spawn foo(p) }
//	sync
//
// the pool holds at most one continuation at a time (the paper's
// example where Cilk uses constant task-pool space while Wool and TBB
// use space linear in the list length) — see TestConstantSpaceSpawnLoop.
//
// Because Go has no compiler support for continuations, task functions
// are written as explicit steps: a Step does some work and returns the
// next Step (or nil to hand control back to the scheduler). Spawn,
// Sync and Return chain steps the way Cilk++'s generated code chains
// its continuations.
package cilkstyle

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/poolerr"
	"gowool/internal/steal"
	"gowool/internal/trace"
)

// Step is one unit of a task function between scheduling points. It
// returns the next step to run, or nil to return control to the
// scheduler (after a steal-induced unwind, a suspend, or completion).
type Step func(w *Worker) Step

// Frame is the activation frame of a task function: the part of its
// state that survives across scheduling points. Embed it in a struct
// carrying the function's variables (the cactus-stack frame).
type Frame struct {
	mu sync.Mutex
	// The child-return protocol state is shared between the owner and
	// every thief running one of the frame's children; all of it is
	// guarded by mu (publication pass: accesses must be dominated by
	// Lock and must not follow Unlock).
	// woolvet:published-by mu
	pending int // outstanding spawned children
	// woolvet:published-by mu
	suspended bool // parked at a Sync waiting for children
	// woolvet:published-by mu
	resume Step // continuation to run when the last child returns
	// parent is written once in NewChild, before the frame is shared.
	parent *Frame
	// woolvet:published-by mu
	done bool // set when the frame's function completed (root tracking)
}

// Stats are the scheduler's event counters.
type Stats struct {
	Spawns        int64
	Steals        int64
	StealAttempts int64
	Suspends      int64 // syncs that had to park the frame
	Resumes       int64 // frames woken by their last returning child
}

func (s *Stats) add(o *Stats) {
	s.Spawns += o.Spawns
	s.Steals += o.Steals
	s.StealAttempts += o.StealAttempts
	s.Suspends += o.Suspends
	s.Resumes += o.Resumes
}

// Worker is one steal-parent worker. Fields are split into
// pad-separated cache-line groups (enforced by the woolvet layoutguard
// pass) so the locked deque the thieves probe never shares a line with
// the owner's scheduling state or the thief-side counters.
type Worker struct {
	// woolvet:cacheline group=immutable
	pool *Pool
	idx  int
	// trc is this worker's event ring, nil when tracing is off. Set
	// once at pool construction and never written again.
	trc *trace.Ring

	// chs is this worker's chaos agent, or nil when fault injection is
	// disabled; set once in NewPool, consulted only by the goroutine
	// driving this worker.
	chs *chaos.Agent

	_ [64]byte // pad: end of the immutable group

	// deque holds ready continuations; the owner pushes and pops at
	// the tail, thieves take from the head. A single lock protects it,
	// matching the lock-based stealing the paper attributes to Cilk++.
	// woolvet:cacheline group=protocol maxspan=64
	mu sync.Mutex
	// woolvet:published-by mu
	deque []Step

	_ [64]byte // pad: end of the protocol group

	// pol is the victim-selection policy (internal/steal), replacing
	// the per-backend xorshift copy. No stealable probe is passed to
	// it: the deque is mutex-guarded, so an unlocked length peek would
	// be a data race — failures feed back through Observe instead.
	// woolvet:cacheline group=owner
	// woolvet:owner
	pol steal.Policy

	// woolvet:owner
	stats Stats

	_ [64]byte // pad: end of the owner-private group

	// woolvet:cacheline group=counters
	// woolvet:atomic
	steals atomic.Int64
	// woolvet:atomic
	stealAttempts atomic.Int64
	// stealing brackets an idle-loop iteration (see Pool.settle).
	// woolvet:atomic
	stealing atomic.Bool
}

// Index returns the worker index.
func (w *Worker) Index() int { return w.idx }

// DequeLen returns the current number of ready continuations in this
// worker's pool (used by the space-guarantee tests).
func (w *Worker) DequeLen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.deque)
}

// Options configures a Pool.
type Options struct {
	// Workers is the worker count; default GOMAXPROCS.
	Workers int
	// DequeSize is the initial capacity of each worker's
	// ready-continuation deque. The deque grows on demand — steal-parent
	// holds at most one continuation per spawn nest, so there is no
	// overflow to degrade — making this a pre-allocation hint only.
	DequeSize int
	// MaxIdleSleep caps idle back-off sleeping; default 200µs.
	MaxIdleSleep time.Duration
	// Trace, when non-nil, records scheduler events into per-worker
	// rings. This backend emits STEAL (victim, 0: a continuation was
	// taken from the victim's locked deque) and PARK (a spinning idle
	// worker entered its sleep phase). The tracer must have at least
	// Workers rings.
	Trace *trace.Tracer
	// Chaos attaches a woolchaos fault injector perturbing the locked
	// steal protocol (PointLockAcquire, PointDequePop,
	// PointParkDecision). nil disables injection at zero cost.
	Chaos *chaos.Injector
	// Steal selects the victim policy (internal/steal); the zero value
	// is the historical uniform-random choice. Steal-parent holds at
	// most one continuation per spawn nest, so Amount "half" has
	// nothing extra to take and is ignored.
	Steal steal.Config
}

func (o Options) defaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxIdleSleep == 0 {
		o.MaxIdleSleep = 200 * time.Microsecond
	}
	o.Steal = o.Steal.Defaults()
	return o
}

// Pool is a steal-parent scheduler instance.
type Pool struct {
	opts     Options
	workers  []*Worker
	shutdown atomic.Bool
	running  atomic.Bool
	rootDone atomic.Bool
	wg       sync.WaitGroup

	// First-panic capture. A panicking step leaves its frame's pending
	// count permanently wrong, so the root can never complete; the
	// panic is recorded here, Run re-raises it, and the pool is
	// poisoned against reuse.
	panicOnce sync.Once
	panicVal  any
	panicked  atomic.Bool
}

// recordPanic captures the first panic value and poisons the pool.
func (p *Pool) recordPanic(r any) {
	p.panicOnce.Do(func() {
		p.panicVal = r
		p.panicked.Store(true)
	})
}

// NewPool creates the pool; worker 0 is driven by Run's caller.
func NewPool(opts Options) *Pool {
	opts = opts.defaults()
	if opts.Trace != nil && opts.Trace.Workers() < opts.Workers {
		panic("cilkstyle: Options.Trace has fewer rings than workers")
	}
	if opts.Chaos != nil && opts.Chaos.Workers() < opts.Workers {
		panic("cilkstyle: Options.Chaos has fewer agents than workers")
	}
	p := &Pool{opts: opts}
	p.workers = make([]*Worker, opts.Workers)
	for i := range p.workers {
		p.workers[i] = &Worker{
			pool: p,
			idx:  i,
			pol:  steal.New(opts.Steal, i, opts.Workers),
		}
		if opts.DequeSize > 0 {
			p.workers[i].deque = make([]Step, 0, opts.DequeSize)
		}
		if opts.Trace != nil {
			p.workers[i].trc = opts.Trace.Ring(i)
		}
		if opts.Chaos != nil {
			p.workers[i].chs = opts.Chaos.Agent(i)
		}
	}
	p.wg.Add(opts.Workers - 1)
	for _, w := range p.workers[1:] {
		go w.idleLoop()
	}
	return p
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return len(p.workers) }

// Run drives root (an initial frame and its first step) to completion
// on worker 0 and the thieves, then returns. The root frame must have
// a nil parent; results travel through fields of the user's frame
// struct.
// Abort semantics: a panic in any step poisons the pool. The first
// Run re-raises the original panic value; every later Run fails fast
// with a distinct poisoned message (the abandoned frame tree's pending
// counts are permanently wrong, so the pool cannot be reused). Close
// remains safe on a poisoned pool.
func (p *Pool) Run(root *Frame, first Step) {
	if p.shutdown.Load() {
		panic("cilkstyle: Run on closed Pool")
	}
	if p.panicked.Load() {
		panic(fmt.Sprintf("cilkstyle: pool poisoned by earlier task panic: %v", p.panicVal))
	}
	if !p.running.CompareAndSwap(false, true) {
		panic(poolerr.ConcurrentRun("cilkstyle"))
	}
	defer p.running.Store(false)
	// A panic escaping a step run inline on worker 0 lands here: record
	// it so the idle workers stop and the pool is poisoned, then
	// re-raise the original value to the caller.
	defer func() {
		if r := recover(); r != nil {
			p.recordPanic(r)
			panic(r)
		}
	}()
	if root.parent != nil {
		panic("cilkstyle: root frame must have nil parent")
	}
	p.rootDone.Store(false)
	w := p.workers[0]
	w.runSteps(first)
	// The chain returned control: either the root completed, or its
	// continuation was stolen. Work-and-wait until the root is done.
	// A recorded panic also ends the wait: the broken pending counts
	// mean rootDone may never be set.
	fails := 0
	for !p.rootDone.Load() && !p.panicked.Load() {
		if next := w.popBottom(); next != nil {
			w.runSteps(next)
			fails = 0
			continue
		}
		v := w.chooseVictim()
		if w.trySteal(p.workers[v]) {
			w.observeSteal(v, true)
			fails = 0
			continue
		}
		w.observeSteal(v, false)
		fails++
		if fails&0xf == 0 || runtime.GOMAXPROCS(0) == 1 {
			runtime.Gosched()
		}
	}
	if p.panicked.Load() {
		panic(p.panicVal)
	}
}

// Close stops the workers.
func (p *Pool) Close() {
	if p.shutdown.Swap(true) {
		return
	}
	p.wg.Wait()
}

// settle waits, while no Run is in flight, until no idle worker is
// inside an idle-loop iteration. Idle workers neither run nor steal
// work without a Run, so the counters then hold still: the quiescent
// accessors settle first, which makes Stats and ResetStats right
// after a Run exact.
func (p *Pool) settle() {
	for _, w := range p.workers[1:] {
		for w.stealing.Load() && !p.running.Load() {
			runtime.Gosched()
		}
	}
}

// Stats aggregates worker counters (quiescent pools only).
//
//woolvet:allow ownerprivate -- quiescent-pool accessor by contract
func (p *Pool) Stats() Stats {
	p.settle()
	var s Stats
	for _, w := range p.workers {
		ws := w.stats
		ws.Steals = w.steals.Load()
		ws.StealAttempts = w.stealAttempts.Load()
		s.add(&ws)
	}
	return s
}

// ResetStats zeroes the counters.
//
//woolvet:allow ownerprivate -- quiescent-pool mutator by contract
func (p *Pool) ResetStats() {
	p.settle()
	for _, w := range p.workers {
		w.stats = Stats{}
		w.steals.Store(0)
		w.stealAttempts.Store(0)
	}
}

// runSteps drives a step chain until it hands control back.
func (w *Worker) runSteps(step Step) {
	for step != nil {
		step = step(w)
	}
}

// Spawn registers child-about-to-run semantics: the parent's
// continuation cont becomes stealable and the child runs immediately
// (steal parent). Call it as `return w.Spawn(&f.Frame, f.step2, child.step0)`.
func (w *Worker) Spawn(parent *Frame, cont Step, child Step) Step {
	parent.mu.Lock()
	parent.pending++
	parent.mu.Unlock()
	w.push(cont)
	w.stats.Spawns++
	return child
}

// Sync waits for all outstanding children of f. If none are pending
// the step chain continues with after; otherwise the frame parks and
// the worker looks for other ready work (usually f's own continuation
// pushed by an earlier Spawn — which cannot still be in the deque at a
// correct sync, so in practice: other frames' continuations).
func (w *Worker) Sync(f *Frame, after Step) Step {
	f.mu.Lock()
	if f.pending == 0 {
		f.mu.Unlock()
		return after
	}
	f.suspended = true
	f.resume = after
	f.mu.Unlock()
	w.stats.Suspends++
	return w.popBottom()
}

// Return marks f's function complete and runs the child-return
// protocol: notify the parent (waking it if this was the last child it
// was syncing on) and pick the next ready continuation — in the fast
// path, the parent's continuation this worker pushed at the spawn.
func (w *Worker) Return(f *Frame) Step {
	f.mu.Lock()
	f.done = true
	f.mu.Unlock()
	p := f.parent
	if p == nil {
		w.pool.rootDone.Store(true)
		return nil
	}
	p.mu.Lock()
	p.pending--
	if p.suspended && p.pending == 0 {
		p.suspended = false
		resume := p.resume
		p.resume = nil
		p.mu.Unlock()
		w.stats.Resumes++
		return resume
	}
	p.mu.Unlock()
	return w.popBottom()
}

// NewChild initializes fr as a child frame of parent and returns fr's
// embedded Frame pointer for convenience.
func NewChild(parent, child *Frame) *Frame {
	child.parent = parent
	return child
}

// push adds a ready continuation at the owner's end.
func (w *Worker) push(s Step) {
	w.mu.Lock()
	w.deque = append(w.deque, s)
	w.mu.Unlock()
}

// popBottom takes the youngest ready continuation, or nil.
func (w *Worker) popBottom() Step {
	if w.chs != nil {
		// Delay/yield only, before the lock: give thieves a wider
		// window to race for the continuation.
		w.chs.Point(chaos.PointDequePop)
	}
	w.mu.Lock()
	n := len(w.deque)
	if n == 0 {
		w.mu.Unlock()
		return nil
	}
	s := w.deque[n-1]
	w.deque[n-1] = nil
	w.deque = w.deque[:n-1]
	w.mu.Unlock()
	return s
}

// trySteal takes the oldest ready continuation from victim and runs
// its chain to the next scheduling point.
//
// woolvet:thief
func (w *Worker) trySteal(victim *Worker) bool {
	if victim == w {
		return false
	}
	w.stealAttempts.Add(1)
	if w.chs != nil && w.chs.Point(chaos.PointLockAcquire) {
		// Fail-one-attempt is safe before the lock: nothing is claimed.
		return false
	}
	victim.mu.Lock()
	if len(victim.deque) == 0 {
		victim.mu.Unlock()
		return false
	}
	s := victim.deque[0]
	copy(victim.deque, victim.deque[1:])
	victim.deque[len(victim.deque)-1] = nil
	victim.deque = victim.deque[:len(victim.deque)-1]
	victim.mu.Unlock()
	w.steals.Add(1)
	if w.trc != nil {
		w.trc.Record(trace.KindSteal, int64(victim.idx), 0)
	}
	w.runStolen(s)
	return true
}

// runStolen drives a stolen continuation chain, converting a panic
// into pool poisoning instead of killing the thief goroutine (which
// would leave Close hanging on the WaitGroup). The frame tree the
// panicking step abandons has broken pending counts; Run notices the
// poison and re-raises to the caller.
func (w *Worker) runStolen(s Step) {
	defer func() {
		if r := recover(); r != nil {
			w.pool.recordPanic(r)
		}
	}()
	w.runSteps(s)
}

// chooseVictim asks the worker's steal policy for the next target; no
// stealable probe is available (the deque is mutex-guarded), so the
// outcome feeds back through observeSteal instead.
func (w *Worker) chooseVictim() int { return w.pol.Choose(nil) }

// observeSteal reports a steal attempt's outcome to the policy.
func (w *Worker) observeSteal(v int, ok bool) { w.pol.Observe(v, ok) }

// woolvet:thief
func (w *Worker) idleLoop() {
	fails := 0
	// Also exit on poison: after a recorded panic no more useful work
	// exists, and a chain claimed before the poison always runs to its
	// next scheduling point (runStolen recovers), so exiting between
	// attempts never strands a waiting frame.
	for !w.pool.shutdown.Load() && !w.pool.panicked.Load() {
		// Dekker with Pool.settle: announce the iteration, then check
		// for a Run (with none in flight every deque is empty).
		w.stealing.Store(true)
		ok := false
		if w.pool.running.Load() {
			if next := w.popBottom(); next != nil {
				w.runStolen(next)
				ok = true
			} else {
				v := w.chooseVictim()
				ok = w.trySteal(w.pool.workers[v])
				w.observeSteal(v, ok)
			}
		}
		w.stealing.Store(false)
		if ok {
			fails = 0
			continue
		}
		fails++
		switch {
		case fails < 64:
			if runtime.GOMAXPROCS(0) == 1 {
				runtime.Gosched()
			}
		case fails < 1024 || w.pool.opts.MaxIdleSleep <= 0:
			runtime.Gosched()
		default:
			if w.chs != nil {
				// No park/unpark protocol to force here; the sleep-phase
				// decision only gets delay/yield faults.
				w.chs.Point(chaos.PointParkDecision)
			}
			// Closest analogue of PARK in this backend: the spin phase
			// gives way to sleeping (there is no parking engine here).
			if fails == 1024 && w.trc != nil {
				w.trc.Record(trace.KindPark, 0, 0)
			}
			d := time.Duration(fails-1023) * time.Microsecond
			if d > w.pool.opts.MaxIdleSleep {
				d = w.pool.opts.MaxIdleSleep
			}
			time.Sleep(d)
		}
	}
	w.pool.wg.Done()
}
