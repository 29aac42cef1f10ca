// Package chaselev is a steal-child work-stealing scheduler built on
// the Chase-Lev dynamic circular deque, structured like Intel TBB 2.1
// as characterized in the paper: task structures are allocated from a
// per-worker free list, the deques hold only pointers to them, and
// thief/victim synchronization happens on the deque's top and bottom
// indices (the lineage of Dijkstra-style index protocols the paper
// contrasts with synchronizing on the task descriptor).
//
// This is the repository's stand-in for TBB: same scheduling order
// (steal child), same synchronization locus (the indices), same
// allocation structure (free list + pointer deque), and — like TBB's
// wait_for_all — a join that finds its task stolen by default steals
// from arbitrary victims while waiting, which exhibits the buried-join
// behaviour the paper discusses (WaitLeapfrog switches to Wool's
// policy for ablation).
package chaselev

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/overflow"
	"gowool/internal/poolerr"
	"gowool/internal/steal"
	"gowool/internal/trace"
)

// TaskFunc runs a task from its descriptor.
type TaskFunc func(w *Worker, t *Task)

// Task is a heap/free-list allocated task structure; the deque stores
// only pointers to these, as in TBB and Cilk++ (paper Section III).
type Task struct {
	// The wrapper and arguments are published to thieves by the deque
	// itself — the buf-slot store in push is what makes the pointer
	// visible — so they carry the abstract word "deque": writes must
	// dominate the push (release) and reads need alloc/joinAcquire
	// (acquire) in scope. See DESIGN.md §15.
	// woolvet:published-by deque
	fn TaskFunc
	// woolvet:published-by deque
	a0, a1, a2, a3 int64
	// woolvet:published-by deque
	ctx any
	// res is written by whoever ran the task and read by the owner
	// only after it has observed done (the sibling atomic flag).
	// woolvet:published-by done
	res int64

	// stolenBy is the thief index + 1 (atomic; 0 = not stolen).
	// woolvet:atomic
	stolenBy atomic.Int32
	// done is set by the thief on completion.
	// woolvet:atomic
	done atomic.Bool

	next *Task // free-list link, owner-only

	// inlined marks a spawn that overflowed the deque and was executed
	// inline by its owner (serial elision); the matching join reads res
	// directly instead of consulting the deque. Owner-only: set and
	// cleared by the spawning worker, never visible to thieves (an
	// inlined task is never published).
	inlined bool
}

// WaitPolicy selects what a blocked join does while its task is stolen.
type WaitPolicy int

// Wait policies.
const (
	// WaitSteal steals from arbitrary victims while blocked (TBB's
	// behaviour). Subject to the buried-join problem: work stolen here
	// sits above the blocked join on the worker's stack.
	WaitSteal WaitPolicy = iota
	// WaitLeapfrog restricts stealing to the thief of the joined task
	// (Wool's policy).
	WaitLeapfrog
	// WaitSpin just waits, stealing nothing (a non-greedy scheduler,
	// for ablation).
	WaitSpin
)

// String names the policy.
func (p WaitPolicy) String() string {
	switch p {
	case WaitSteal:
		return "steal-any"
	case WaitLeapfrog:
		return "leapfrog"
	case WaitSpin:
		return "spin"
	default:
		return fmt.Sprintf("WaitPolicy(%d)", int(p))
	}
}

// Stats are the scheduler's event counters.
type Stats struct {
	Spawns        int64
	JoinsInlined  int64
	JoinsStolen   int64
	Steals        int64
	StealAttempts int64
	Backoffs      int64 // owner pops that lost the last-element CAS race to a thief
	WaitSteals    int64 // tasks executed while blocked in a join
	Allocs        int64 // task structures taken from the heap (not free list)

	// OverflowInlined counts spawns that found the deque full and
	// degraded to inline serial execution (not counted in Spawns).
	OverflowInlined int64
}

func (s *Stats) add(o *Stats) {
	s.Spawns += o.Spawns
	s.JoinsInlined += o.JoinsInlined
	s.JoinsStolen += o.JoinsStolen
	s.Steals += o.Steals
	s.StealAttempts += o.StealAttempts
	s.Backoffs += o.Backoffs
	s.WaitSteals += o.WaitSteals
	s.Allocs += o.Allocs
	s.OverflowInlined += o.OverflowInlined
}

// Worker is one deque-scheduler worker. Like core.Worker, the fields
// are split into pad-separated cache-line groups (enforced by the
// woolvet layoutguard pass): the deque indices both sides hammer, the
// owner-private scheduling state, and the thief-side counters must
// never share a line, or thief CAS traffic invalidates the owner's
// push/pop line on every probe.
type Worker struct {
	// woolvet:cacheline group=immutable
	pool *Pool
	idx  int

	// trc is this worker's wooltrace ring, or nil when tracing is
	// disabled; set once in NewPool, recorded into only by the
	// goroutine driving this worker.
	trc *trace.Ring

	// chs is this worker's chaos agent, or nil when fault injection is
	// disabled; set once in NewPool, consulted only by the goroutine
	// driving this worker.
	chs *chaos.Agent

	// buf holds size slots; live indices are [top, bottom), the owner
	// pushes/pops at bottom, thieves CAS top. The slice header and
	// mask are immutable after construction. A slot store must
	// dominate the bottom release that makes it visible (the Chase-Lev
	// publication ordering), enforced by the publication pass.
	// woolvet:published-by bottom
	buf  []atomic.Pointer[Task]
	mask int64

	_ [64]byte // pad: end of the immutable group

	// Chase-Lev deque indices. Unlike Wool's protocol words, both are
	// read by both sides on every operation (the owner reads top in
	// push/popBottom, thieves read bottom in trySteal), so they share
	// one line by design: a probe costs a single line transfer.
	// woolvet:cacheline group=deque maxspan=64
	// woolvet:atomic
	top atomic.Int64
	// woolvet:atomic
	bottom atomic.Int64

	_ [64]byte // pad: end of the deque-index group

	// shadow tracks this worker's own outstanding spawns so a join
	// knows which task it is waiting for (TBB tracks this through
	// parent/ref-count links; an explicit stack is the same
	// information).
	// woolvet:cacheline group=owner
	// woolvet:owner
	shadow []*Task

	// woolvet:owner
	free *Task // free list of task structures, owner-only

	// pol is the victim-selection policy (internal/steal), replacing
	// the per-backend xorshift copy; probe is the read-only stealable
	// probe handed to it, built once in NewPool. Both owner-private.
	// woolvet:owner
	pol steal.Policy
	// woolvet:owner
	probe func(int) bool

	// stats holds owner-path counters; the thief-path counters are
	// atomics because idle workers keep attempting steals with no
	// happens-before edge to a Stats() reader.
	// woolvet:owner
	stats Stats

	_ [64]byte // pad: end of the owner-private group

	// woolvet:cacheline group=counters
	// woolvet:atomic
	stealAttempts atomic.Int64
	// woolvet:atomic
	steals atomic.Int64
	// stealing brackets an idle steal attempt (see Pool.settle).
	// woolvet:atomic
	stealing atomic.Bool
}

// Index returns the worker index.
func (w *Worker) Index() int { return w.idx }

// Options configures a Pool.
type Options struct {
	// Workers is the worker count; default GOMAXPROCS.
	Workers int
	// DequeSize is the per-worker deque capacity (rounded up to a
	// power of two); default 8192.
	DequeSize int
	// Wait selects the blocked-join policy; default WaitSteal.
	Wait WaitPolicy
	// MaxIdleSleep caps idle back-off sleeping; default 200µs.
	MaxIdleSleep time.Duration
	// Trace attaches a wooltrace tracer; this backend records STEAL
	// (victim, deque top index) and PARK (idle sleep-phase entry)
	// events. nil disables tracing at zero cost (plain nil check).
	Trace *trace.Tracer
	// Chaos attaches a woolchaos fault injector perturbing the deque
	// protocol (PointDequePop, PointThiefCAS, PointLeapfrogPick,
	// PointParkDecision). nil disables injection at zero cost.
	Chaos *chaos.Injector
	// StrictOverflow restores the pre-degradation behaviour: a spawn
	// that finds the deque full panics instead of executing the child
	// inline and counting it in Stats.OverflowInlined.
	StrictOverflow bool
	// Steal selects the victim policy and the steal amount
	// (internal/steal). The zero value is the historical behaviour:
	// uniform random victims, one task per steal. Amount "half" makes
	// a successful thief drain up to half of the victim's visible
	// tasks in a burst of top-CAS claims (Hendler & Shavit) and run
	// them oldest-first.
	Steal steal.Config
}

func (o Options) defaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.DequeSize <= 0 {
		o.DequeSize = 8192
	}
	n := 1
	for n < o.DequeSize {
		n <<= 1
	}
	o.DequeSize = n
	if o.MaxIdleSleep == 0 {
		o.MaxIdleSleep = 200 * time.Microsecond
	}
	o.Steal = o.Steal.Defaults()
	return o
}

// Pool is a deque-scheduler instance.
type Pool struct {
	opts      Options
	workers   []*Worker
	stealHalf bool // Options.Steal.Amount == "half": batch extraction on
	shutdown  atomic.Bool
	running   atomic.Bool
	wg        sync.WaitGroup

	// Abort state: the first panic from a stolen task (or the root)
	// poisons the pool; Run re-raises it and later Runs fail fast.
	// Same semantics as core (DESIGN.md §11).
	panicOnce sync.Once
	panicVal  any
	panicked  atomic.Bool
}

// NewPool creates the pool; worker 0 is driven by Run's caller.
//
//woolvet:allow ownerprivate -- construction: workers are unshared until the goroutines start
func NewPool(opts Options) *Pool {
	opts = opts.defaults()
	if opts.Workers > math.MaxInt32-1 {
		panic(fmt.Sprintf("chaselev: Options.Workers = %d exceeds the int32 stolenBy encoding (thief index + 1)", opts.Workers))
	}
	if opts.Trace != nil && opts.Trace.Workers() < opts.Workers {
		panic(fmt.Sprintf("chaselev: Options.Trace has %d rings for %d workers", opts.Trace.Workers(), opts.Workers))
	}
	if opts.Chaos != nil && opts.Chaos.Workers() < opts.Workers {
		panic(fmt.Sprintf("chaselev: Options.Chaos has %d agents for %d workers", opts.Chaos.Workers(), opts.Workers))
	}
	p := &Pool{opts: opts, stealHalf: opts.Steal.Amount == steal.AmountHalf}
	p.workers = make([]*Worker, opts.Workers)
	for i := range p.workers {
		w := &Worker{
			pool: p,
			idx:  i,
			buf:  make([]atomic.Pointer[Task], opts.DequeSize),
			mask: int64(opts.DequeSize - 1),
			pol:  steal.New(opts.Steal, i, opts.Workers),
		}
		w.probe = func(v int) bool {
			vw := p.workers[v]
			return vw.top.Load() < vw.bottom.Load()
		}
		if opts.Trace != nil {
			w.trc = opts.Trace.Ring(i)
		}
		if opts.Chaos != nil {
			w.chs = opts.Chaos.Agent(i)
		}
		p.workers[i] = w
	}
	p.wg.Add(opts.Workers - 1)
	for _, w := range p.workers[1:] {
		go w.idleLoop()
	}
	return p
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return len(p.workers) }

// Run executes root on worker 0 and returns its result.
//
// Abort semantics match core (DESIGN.md §11): a panic in a stolen task
// is recovered by the thief (so the done flag still publishes and the
// joining owner unblocks), recorded, and re-raised here; a panic in
// root itself poisons the pool on the way out. A poisoned pool rejects
// later Run calls with a distinct message; Close stays safe.
//
//woolvet:allow ownerprivate -- the calling goroutine IS worker 0's owner for the duration of Run
func (p *Pool) Run(root func(*Worker) int64) int64 {
	if p.shutdown.Load() {
		panic("chaselev: Run on closed Pool")
	}
	if p.panicked.Load() {
		panic(fmt.Sprintf("chaselev: pool poisoned by earlier task panic: %v", p.panicVal))
	}
	if !p.running.CompareAndSwap(false, true) {
		panic(poolerr.ConcurrentRun("chaselev"))
	}
	defer p.running.Store(false)
	defer func() {
		if r := recover(); r != nil {
			p.recordPanic(r)
			panic(r)
		}
	}()
	w := p.workers[0]
	res := root(w)
	if len(w.shadow) != 0 {
		panic("chaselev: root returned with unjoined tasks")
	}
	if p.panicked.Load() {
		panic(p.panicVal)
	}
	return res
}

// recordPanic stores the first task panic, poisoning the pool.
func (p *Pool) recordPanic(r any) {
	p.panicOnce.Do(func() {
		p.panicVal = r
		p.panicked.Store(true)
	})
}

// Close stops the workers.
func (p *Pool) Close() {
	if p.shutdown.Swap(true) {
		return
	}
	p.wg.Wait()
}

// settle waits, while no Run is in flight, until no idle worker is
// inside a steal attempt. Idle workers neither attempt nor count
// steals without a Run, so the counters then hold still: the
// quiescent accessors settle first, which makes Stats and ResetStats
// right after a Run exact.
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
		ws.StealAttempts = w.stealAttempts.Load()
		ws.Steals = w.steals.Load()
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
		w.stealAttempts.Store(0)
		w.steals.Store(0)
	}
}

// alloc takes a task structure from the free list (or the heap). The
// returned descriptor is private to the caller until push publishes
// it — an acquire of the deque word, which also re-privatizes a
// recycled free-list task for the publication pass.
//
// woolvet:acquire deque
func (w *Worker) alloc() *Task {
	t := w.free
	if t == nil {
		w.stats.Allocs++
		return new(Task)
	}
	w.free = t.next
	t.next = nil
	return t
}

// release returns a joined task to the free list. Owner-only: tasks
// are always freed by the worker that spawned them, after the join, so
// the list needs no synchronization (TBB's scheme).
func (w *Worker) release(t *Task) {
	t.ctx = nil
	t.fn = nil
	t.inlined = false
	t.next = w.free
	w.free = t
}

// push adds t at the bottom of the deque (owner only). Returns false
// when the deque is full and the caller must degrade the spawn to
// inline execution (elide); under StrictOverflow a full deque panics
// instead.
//
// The buf-slot store is what makes t visible to thieves: every write
// to t's published fields must already have happened — push is the
// release of the deque word.
//
// woolvet:release deque
func (w *Worker) push(t *Task) bool {
	b := w.bottom.Load()
	tp := w.top.Load()
	if b-tp >= int64(len(w.buf))-1 {
		if w.pool.opts.StrictOverflow {
			panic(overflow.PanicMessage("chaselev", w.idx, len(w.buf)))
		}
		return false
	}
	w.buf[b&w.mask].Store(t)
	w.bottom.Store(b + 1)
	w.shadow = append(w.shadow, t)
	w.stats.Spawns++
	return true
}

// elide runs an overflowing spawn inline (serial elision): the wrapper
// fills t.res now, and the task goes on the shadow stack marked inlined
// so the matching join reads the result without touching the deque.
// Spawns and the join counters deliberately exclude elided tasks.
func (w *Worker) elide(t *Task) {
	t.inlined = true
	fn := t.fn
	fn(w, t)
	w.shadow = append(w.shadow, t)
	w.stats.OverflowInlined++
}

// popBottom is the owner's take from its own deque (Chase-Lev).
func (w *Worker) popBottom() *Task {
	b := w.bottom.Load() - 1
	w.bottom.Store(b)
	if w.chs != nil {
		// Widen the window between publishing the lowered bottom and
		// reading top, where a thief can race for the last element.
		// Delay/yield only: the pop itself must always complete.
		w.chs.Point(chaos.PointDequePop)
	}
	t := w.top.Load()
	if t > b {
		// Empty; restore canonical state.
		w.bottom.Store(t)
		return nil
	}
	task := w.buf[b&w.mask].Load()
	if t == b {
		// Last element: race with thieves through top.
		if !w.top.CompareAndSwap(t, t+1) {
			task = nil // a thief won
			w.stats.Backoffs++
		}
		w.bottom.Store(t + 1)
	}
	return task
}

// trySteal attempts to steal the oldest task from victim and run it.
//
// woolvet:thief
func (w *Worker) trySteal(victim *Worker, countWait bool) bool {
	if victim == w {
		return false
	}
	w.stealAttempts.Add(1)
	t := victim.top.Load()
	b := victim.bottom.Load()
	if t >= b {
		return false
	}
	task := victim.buf[t&victim.mask].Load()
	if task == nil {
		return false
	}
	if w.chs != nil && w.chs.Point(chaos.PointThiefCAS) {
		// Fail-one-attempt is safe pre-CAS: nothing is claimed yet.
		return false
	}
	if !victim.top.CompareAndSwap(t, t+1) {
		return false
	}
	task.stolenBy.Store(int32(w.idx) + 1)
	w.steals.Add(1)
	if countWait {
		w.stats.WaitSteals++
	}
	if w.trc != nil {
		w.trc.Record(trace.KindSteal, int64(victim.idx), t)
	}
	if w.pool.stealHalf {
		// The whole half leaves the victim's deque in one burst before
		// anything runs; tasks then execute oldest-first (batch[i]
		// were claimed after task, so task runs first). The burst must
		// be a local: a stolen task's blocked join re-enters trySteal
		// on this worker mid-drain.
		var batch [stealBatchMax]*Task
		n := w.stealBatch(victim, b-t, countWait, &batch)
		w.runStolen(task)
		task.done.Store(true)
		for i := 0; i < n; i++ {
			w.runStolen(batch[i])
			batch[i].done.Store(true)
		}
		return true
	}
	w.runStolen(task)
	task.done.Store(true)
	return true
}

// stealBatchMax caps a steal-half burst: enough to drain a deep victim
// in a few steals without one thief convoying a huge backlog behind a
// single running task.
const stealBatchMax = 15

// stealBatch extends a successful steal to Hendler & Shavit's
// steal-half: after the first claim, keep CAS-claiming the victim's
// oldest task until we hold half of what was visible at the first
// probe (avail), someone else interferes, or the burst cap is hit.
// Claimed tasks are stamped stolenBy immediately — a blocked joiner
// leapfrogs to this thief and helps with our own deque while its task
// waits its turn (the same convoy semantics as locksched's StealHalf).
//
// woolvet:thief
func (w *Worker) stealBatch(victim *Worker, avail int64, countWait bool, out *[stealBatchMax]*Task) int {
	want := (avail+1)/2 - 1 // beyond the task already claimed
	n := 0
	for int64(n) < want && n < len(out) {
		t := victim.top.Load()
		b := victim.bottom.Load()
		if t >= b {
			break
		}
		task := victim.buf[t&victim.mask].Load()
		if task == nil {
			break
		}
		if !victim.top.CompareAndSwap(t, t+1) {
			break
		}
		task.stolenBy.Store(int32(w.idx) + 1)
		w.steals.Add(1)
		if countWait {
			w.stats.WaitSteals++
		}
		if w.trc != nil {
			w.trc.Record(trace.KindSteal, int64(victim.idx), t)
		}
		out[n] = task
		n++
	}
	return n
}

// runStolen executes a stolen task, converting a panic in user code
// into a pool-wide abort: recovering here lets trySteal still publish
// the done flag, so the joining owner unblocks instead of spinning on
// a task that would never complete (the panic-deadlock bug), and Run
// re-raises the recorded panic.
func (w *Worker) runStolen(task *Task) {
	defer func() {
		if r := recover(); r != nil {
			w.pool.recordPanic(r)
		}
	}()
	fn := task.fn
	fn(w, task)
}

// joinAcquire resolves the youngest outstanding spawn of w: inline it
// if it is still in the deque, otherwise wait out the thief under the
// configured policy. Returns (task, inline). Either way the returned
// task is exclusively the caller's again — popBottom won the bottom
// race or the done spin observed the thief's release — so this is the
// acquire of both the deque word and the done flag.
//
// woolvet:acquire deque
// woolvet:acquire done
func (w *Worker) joinAcquire() (*Task, bool) {
	if len(w.shadow) == 0 {
		panic("chaselev: join without matching spawn")
	}
	expected := w.shadow[len(w.shadow)-1]
	w.shadow = w.shadow[:len(w.shadow)-1]

	if expected.inlined {
		// Overflow-elided spawn: it never entered the deque and its
		// result is already in res. Not an inline join for accounting —
		// the spawn was not counted either.
		return expected, false
	}

	if task := w.popBottom(); task != nil {
		if task != expected {
			panic("chaselev: deque order violated LIFO nesting")
		}
		w.stats.JoinsInlined++
		return expected, true
	}

	// Stolen. Wait per policy.
	w.stats.JoinsStolen++
	fails := 0
	for !expected.done.Load() {
		progressed := false
		switch w.pool.opts.Wait {
		case WaitSteal:
			if w.chs == nil || !w.chs.Point(chaos.PointLeapfrogPick) {
				v := w.pol.Choose(w.probe)
				progressed = w.trySteal(w.pool.workers[v], true)
				w.pol.Observe(v, progressed)
			}
		case WaitLeapfrog:
			if thief := expected.stolenBy.Load(); thief != 0 {
				if w.chs == nil || !w.chs.Point(chaos.PointLeapfrogPick) {
					progressed = w.trySteal(w.pool.workers[thief-1], true)
				}
			}
		case WaitSpin:
			// just wait
		}
		if progressed {
			fails = 0
		} else {
			fails++
			if fails&0x3f == 0 || runtime.GOMAXPROCS(0) == 1 {
				runtime.Gosched()
			}
		}
	}
	return expected, false
}

// idleLoop steals until shutdown — or until the pool is poisoned by a
// task panic, after which the abandoned tree's tasks must not keep
// executing in the background (a claimed task always finishes; the
// exit only happens between attempts).
//
// woolvet:thief
func (w *Worker) idleLoop() {
	fails := 0
	for !w.pool.shutdown.Load() && !w.pool.panicked.Load() {
		// Dekker with Pool.settle: announce the attempt, then check
		// for a Run (with none in flight every deque is empty).
		w.stealing.Store(true)
		ok := false
		if w.pool.running.Load() {
			v := w.pol.Choose(w.probe)
			ok = w.trySteal(w.pool.workers[v], false)
			w.pol.Observe(v, ok)
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
				// This backend has no park/unpark protocol to force, so
				// the sleep-phase decision only gets delay/yield faults.
				w.chs.Point(chaos.PointParkDecision)
			}
			if fails == 1024 && w.trc != nil {
				// This backend has no parking engine; entering the
				// sleep phase is its closest PARK analogue.
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
