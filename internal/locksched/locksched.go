// Package locksched is the lock-based work-stealing scheduler ladder
// the paper evaluates against the direct task stack: the "Base"
// alternative of Table II and the base/peek/trylock steal strategies of
// Figure 4 (Sections IV-B and IV-C).
//
// Per the paper, each worker has a lock providing mutual exclusion
// between its thieves and itself: a worker takes its own lock for join
// (but not spawn) operations, and thieves take the victim's lock to
// steal. No state word is stored in the task descriptors; whether a
// join or steal succeeds is decided by comparing the top and bot
// indices. Because bot is protected by the lock, thieves never need to
// back off.
//
// The steal strategies differ in how a thief approaches the lock:
//
//   - StealBase: take the lock immediately after selecting a victim.
//   - StealPeek: first read the indices without the lock and only take
//     it when there appears to be a stealable task.
//   - StealTryLock: peek, then use TryLock and abort the attempt if the
//     lock is contended.
//
// Joins that find their task stolen leapfrog, exactly as the direct
// task stack does, so the ladder isolates the synchronization cost.
package locksched

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

// StealStrategy selects how thieves interact with the victim's lock.
type StealStrategy int

// Steal strategies (Figure 4).
const (
	StealBase StealStrategy = iota
	StealPeek
	StealTryLock
)

// String returns the strategy name as used in the paper's Figure 4.
func (s StealStrategy) String() string {
	switch s {
	case StealBase:
		return "base"
	case StealPeek:
		return "peek"
	case StealTryLock:
		return "trylock"
	default:
		return fmt.Sprintf("StealStrategy(%d)", int(s))
	}
}

// TaskFunc runs a task from its descriptor.
type TaskFunc func(w *Worker, t *Task)

// Task is a descriptor in the lock-based pool. There is no state word;
// stolen/done bookkeeping lives in separate fields because, unlike the
// direct task stack, the indices alone cannot tell a joining owner when
// its thief has finished.
type Task struct {
	// The wrapper and arguments are published to thieves by the
	// owner's atomic bump of top in spawn — the abstract word "top"
	// here: writes must dominate the spawn call and reads need
	// push/joinAcquire in scope (publication pass, DESIGN.md §15).
	// woolvet:published-by top
	fn TaskFunc
	// woolvet:published-by top
	a0, a1, a2, a3 int64
	// woolvet:published-by top
	ctx any
	// res is written by the thief before its done release and read by
	// the owner only after it has observed done.
	// woolvet:published-by done
	res int64

	// stolenBy is the thief index + 1, written under the victim's
	// lock; 0 means not stolen.
	stolenBy int32
	// done is set by the thief when the stolen task completes — the
	// only lock-free communication in this scheduler.
	// woolvet:atomic
	done atomic.Bool
}

// Stats mirror core.Stats for the events this ladder has.
type Stats struct {
	Spawns        int64
	JoinsInlined  int64
	JoinsStolen   int64
	Steals        int64
	StealAttempts int64
	LockFailures  int64 // TryLock failures (trylock strategy only)
	LeapSteals    int64

	// OverflowInlined counts spawns that found the pool full and
	// degraded to inline serial execution (not counted in Spawns).
	OverflowInlined int64
}

func (s *Stats) add(o *Stats) {
	s.Spawns += o.Spawns
	s.JoinsInlined += o.JoinsInlined
	s.JoinsStolen += o.JoinsStolen
	s.Steals += o.Steals
	s.StealAttempts += o.StealAttempts
	s.LockFailures += o.LockFailures
	s.LeapSteals += o.LeapSteals
	s.OverflowInlined += o.OverflowInlined
}

// Worker is one lock-based worker. The fields are split into
// pad-separated cache-line groups (enforced by the woolvet layoutguard
// pass) so the lock word and indices the thieves hammer never share a
// line with the owner's scheduling state or the thief-side counters.
type Worker struct {
	// woolvet:cacheline group=immutable
	pool  *Pool
	idx   int
	tasks []Task

	// trc is this worker's wooltrace ring, or nil when tracing is
	// disabled; set once in NewPool, recorded into only by the
	// goroutine driving this worker.
	trc *trace.Ring

	// chs is this worker's chaos agent, or nil when fault injection is
	// disabled; set once in NewPool, consulted only by the goroutine
	// driving this worker.
	chs *chaos.Agent

	_ [64]byte // pad: end of the immutable group

	// lock protects the join/steal index comparison and bot updates.
	// It shares a line with the indices it guards by design: a steal's
	// lock-compare-update touches a single line.
	// woolvet:cacheline group=protocol maxspan=64
	lock sync.Mutex

	// top is written by the owner (spawn does not take the lock, as in
	// the paper) and read by thieves, hence atomic.
	// woolvet:atomic
	top atomic.Int64
	// bot is written only under lock; the peek strategies read it
	// without the lock, where staleness at worst wastes or skips one
	// lock acquisition.
	// woolvet:atomic
	bot atomic.Int64

	_ [64]byte // pad: end of the protocol group

	// pol is the victim-selection policy (internal/steal), replacing
	// the per-backend xorshift copy; probe is the read-only stealable
	// probe handed to it (a lock-free bot/top peek — staleness at worst
	// wastes one choice, like the peek strategies). Both owner-private.
	// woolvet:cacheline group=owner
	// woolvet:owner
	pol steal.Policy
	// woolvet:owner
	probe func(int) bool

	// ovf holds the results of overflow-inlined spawns, youngest last.
	// Invariant: non-empty only while top == capacity (entries are
	// created only when the pool is full, popping the stack first joins
	// these entries, and steals advance bot — never top), so joinAcquire
	// only needs a length check at its head.
	// woolvet:owner
	ovf []int64

	// ovfTask is the scratch descriptor an overflow-inlined join
	// returns; only res is meaningful on the non-inline join path.
	// woolvet:owner
	ovfTask Task

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
	// woolvet:atomic
	lockFailures atomic.Int64
	// stealing brackets an idle steal attempt (see Pool.settle).
	// woolvet:atomic
	stealing atomic.Bool
}

// Index returns the worker's index.
func (w *Worker) Index() int { return w.idx }

// Depth returns the number of live tasks (owner only, approximate when
// thieves are active).
func (w *Worker) Depth() int { return int(w.top.Load() - w.bot.Load()) }

// Options configures a Pool.
type Options struct {
	// Workers is the worker count; default GOMAXPROCS.
	Workers int
	// StackSize is the per-worker pool capacity; default 8192.
	StackSize int
	// Strategy is the thief locking strategy; default StealBase.
	Strategy StealStrategy
	// StealHalf makes a successful steal take up to half of the
	// victim's queued tasks in one locked critical section instead of
	// one (Hendler & Shavit's steal-half, the paper's reference [14]):
	// fewer lock acquisitions per unit of migrated work, at the price
	// of claimed-but-unstarted tasks convoying behind the first.
	StealHalf bool
	// MaxIdleSleep caps idle back-off sleeping; default 200µs.
	MaxIdleSleep time.Duration
	// Trace attaches a wooltrace tracer; this backend records STEAL
	// (victim, stolen bot index) and PARK (idle sleep-phase entry)
	// events. nil disables tracing at zero cost (plain nil check).
	Trace *trace.Tracer
	// Chaos attaches a woolchaos fault injector perturbing the lock
	// protocol (PointLockAcquire, PointOwnerExchange,
	// PointLeapfrogPick, PointParkDecision). nil disables injection at
	// zero cost.
	Chaos *chaos.Injector
	// StrictOverflow restores the pre-degradation behaviour: a spawn
	// that finds the pool full panics instead of executing the child
	// inline and counting it in Stats.OverflowInlined.
	StrictOverflow bool
	// Steal selects the victim policy and steal amount
	// (internal/steal). The zero value is the historical behaviour:
	// uniform random victims, one task per steal. Amount "half" is the
	// same batch extraction as the legacy StealHalf flag — defaults
	// fold the two together (either switch enables both views).
	Steal steal.Config
}

func (o Options) defaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.StackSize <= 0 {
		o.StackSize = 8192
	}
	if o.MaxIdleSleep == 0 {
		o.MaxIdleSleep = 200 * time.Microsecond
	}
	if o.Steal.Amount == steal.AmountHalf {
		o.StealHalf = true
	} else if o.StealHalf && o.Steal.Amount == "" {
		o.Steal.Amount = steal.AmountHalf
	}
	o.Steal = o.Steal.Defaults()
	return o
}

// Pool is a lock-based scheduler instance.
type Pool struct {
	opts     Options
	workers  []*Worker
	shutdown atomic.Bool
	running  atomic.Bool
	wg       sync.WaitGroup

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
		panic(fmt.Sprintf("locksched: Options.Workers = %d exceeds the int32 stolenBy encoding (thief index + 1)", opts.Workers))
	}
	if opts.Trace != nil && opts.Trace.Workers() < opts.Workers {
		panic(fmt.Sprintf("locksched: Options.Trace has %d rings for %d workers", opts.Trace.Workers(), opts.Workers))
	}
	if opts.Chaos != nil && opts.Chaos.Workers() < opts.Workers {
		panic(fmt.Sprintf("locksched: Options.Chaos has %d agents for %d workers", opts.Chaos.Workers(), opts.Workers))
	}
	p := &Pool{opts: opts}
	p.workers = make([]*Worker, opts.Workers)
	for i := range p.workers {
		w := &Worker{
			pool:  p,
			idx:   i,
			tasks: make([]Task, opts.StackSize),
			pol:   steal.New(opts.Steal, i, opts.Workers),
		}
		w.probe = func(v int) bool {
			vw := p.workers[v]
			return vw.bot.Load() < vw.top.Load()
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
// is recovered by the thief (so every claimed task's done flag still
// publishes and joining owners unblock), recorded, and re-raised here;
// a panic in root itself poisons the pool on the way out. A poisoned
// pool rejects later Run calls with a distinct message; Close stays
// safe.
//
//woolvet:allow ownerprivate -- the calling goroutine IS worker 0's owner for the duration of Run
func (p *Pool) Run(root func(*Worker) int64) int64 {
	if p.shutdown.Load() {
		panic("locksched: Run on closed Pool")
	}
	if p.panicked.Load() {
		panic(fmt.Sprintf("locksched: pool poisoned by earlier task panic: %v", p.panicVal))
	}
	if !p.running.CompareAndSwap(false, true) {
		panic(poolerr.ConcurrentRun("locksched"))
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
	if w.top.Load() != w.bot.Load() || len(w.ovf) != 0 {
		panic("locksched: root returned with unjoined tasks")
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
		ws.LockFailures = w.lockFailures.Load()
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
		w.lockFailures.Store(0)
	}
}

// push readies the next descriptor for a spawn. Returns nil when the
// pool is full and the caller must degrade the spawn to inline serial
// execution (noteOverflowInlined); under StrictOverflow a full pool
// panics instead. The returned slot is above top and therefore still
// private to the owner — the acquire of the abstract top word.
//
// woolvet:acquire top
func (w *Worker) push() *Task {
	top := w.top.Load()
	if top == int64(len(w.tasks)) {
		if w.pool.opts.StrictOverflow {
			panic(overflow.PanicMessage("locksched", w.idx, len(w.tasks)))
		}
		return nil
	}
	return &w.tasks[top]
}

// noteOverflowInlined records the result of an overflow-elided spawn;
// the matching join replays it LIFO via the head check in joinAcquire.
func (w *Worker) noteOverflowInlined(res int64) {
	w.ovf = append(w.ovf, res)
	w.stats.OverflowInlined++
}

// spawn publishes the descriptor: the atomic bump of top is the release
// making the task visible to thieves. No lock, per the paper. Every
// write to the descriptor's published fields must precede this call.
//
// woolvet:release top
func (w *Worker) spawn(t *Task) {
	t.stolenBy = 0
	t.done.Store(false)
	w.top.Add(1)
	w.stats.Spawns++
}

// joinAcquire pops the youngest task. The owner takes its own lock and
// compares indices: if bot stayed at or below the popped slot the task
// is still present and is inlined; otherwise it was stolen and the
// owner leapfrogs off the recorded thief until done. Either way the
// returned descriptor is exclusively the caller's again — the locked
// index exchange or the done spin — so this acquires both words.
//
// woolvet:acquire top
// woolvet:acquire done
func (w *Worker) joinAcquire() (*Task, bool) {
	if n := len(w.ovf); n != 0 {
		// Overflow-elided spawns replay LIFO before anything on the
		// stack (they are strictly younger — the pool was full when
		// they ran). Only res is read on the non-inline join path.
		w.ovfTask.res = w.ovf[n-1]
		w.ovf = w.ovf[:n-1]
		return &w.ovfTask, false
	}
	if w.chs != nil {
		// Delay/yield only: the owner's locked exchange must complete.
		w.chs.Point(chaos.PointOwnerExchange)
	}
	w.lock.Lock()
	top := w.top.Load() - 1
	t := &w.tasks[top]
	if w.bot.Load() <= top {
		w.top.Store(top)
		w.lock.Unlock()
		w.stats.JoinsInlined++
		return t, true
	}
	// Stolen: bot passed the slot (it is top+1). Leave top alone until
	// the thief is done — it is still writing into this descriptor,
	// and work acquired by leapfrogging spawns at top, which would
	// recycle the slot under the thief. With bot == top the slot is
	// not stealable meanwhile.
	thief := int(t.stolenBy) - 1
	w.lock.Unlock()
	w.stats.JoinsStolen++

	victim := w.pool.workers[thief]
	fails := 0
	for !t.done.Load() {
		if w.chs != nil && w.chs.Point(chaos.PointLeapfrogPick) {
			fails++
			if fails&0x3f == 0 {
				runtime.Gosched()
			}
			continue
		}
		if w.trySteal(victim) {
			w.stats.LeapSteals++
			fails = 0
		} else {
			fails++
			if fails&0x3f == 0 || runtime.GOMAXPROCS(0) == 1 {
				runtime.Gosched()
			}
		}
	}
	// Retire the slot: pull top and bot back over the joined descriptor.
	w.lock.Lock()
	w.top.Store(top)
	w.bot.Store(top)
	w.lock.Unlock()
	return t, false
}

// trySteal attempts one steal from victim under the configured
// strategy, running the stolen task to completion on w.
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
	strat := w.pool.opts.Strategy

	if strat != StealBase {
		// Peek: look at the indices without the lock first.
		if victim.bot.Load() >= victim.top.Load() {
			return false
		}
	}
	if strat == StealTryLock {
		if !victim.lock.TryLock() {
			w.lockFailures.Add(1)
			return false
		}
	} else {
		victim.lock.Lock()
	}
	// Re-check under mutual exclusion.
	bot := victim.bot.Load()
	top := victim.top.Load()
	if bot >= top {
		victim.lock.Unlock()
		return false
	}
	take := int64(1)
	if w.pool.opts.StealHalf {
		if avail := top - bot; avail > 1 {
			take = (avail + 1) / 2
		}
	}
	for i := int64(0); i < take; i++ {
		victim.tasks[bot+i].stolenBy = int32(w.idx) + 1
	}
	victim.bot.Store(bot + take)
	victim.lock.Unlock()

	w.steals.Add(1)
	if w.trc != nil {
		w.trc.Record(trace.KindSteal, int64(victim.idx), bot)
	}
	// Run the claimed tasks oldest-first (the order thieves would have
	// taken them individually). runStolen recovers a panicking task so
	// the remaining claimed tasks still execute and every done flag
	// still publishes — with StealHalf a single unrecovered panic would
	// strand every task convoying behind it and deadlock their joins.
	for i := int64(0); i < take; i++ {
		t := &victim.tasks[bot+i]
		w.runStolen(t)
		t.done.Store(true)
	}
	return true
}

// runStolen executes one claimed task, converting a panic in user code
// into a pool-wide abort (recorded here, re-raised by Run).
func (w *Worker) runStolen(t *Task) {
	defer func() {
		if r := recover(); r != nil {
			w.pool.recordPanic(r)
		}
	}()
	fn := t.fn
	fn(w, t)
}

// idleLoop steals until shutdown — or until the pool is poisoned by a
// task panic, after which the abandoned tree's tasks must not keep
// executing in the background (claimed tasks always finish; the exit
// only happens between attempts).
//
// woolvet:thief
func (w *Worker) idleLoop() {
	fails := 0
	for !w.pool.shutdown.Load() && !w.pool.panicked.Load() {
		// Dekker with Pool.settle: announce the attempt, then check
		// for a Run (with none in flight every pool is empty).
		w.stealing.Store(true)
		ok := false
		if w.pool.running.Load() {
			v := w.pol.Choose(w.probe)
			ok = w.trySteal(w.pool.workers[v])
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
				// No park/unpark protocol to force here; the sleep-phase
				// decision only gets delay/yield faults.
				w.chs.Point(chaos.PointParkDecision)
			}
			if fails == 1024 && w.trc != nil {
				// No parking engine here; entering the sleep phase is
				// this backend's closest PARK analogue.
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
