package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gowool/internal/chaos"
	"gowool/internal/poolerr"
	"gowool/internal/steal"
	"gowool/internal/trace"
)

// Options configures a Pool. The zero value is usable: Defaults fills
// in every unset field.
type Options struct {
	// Workers is the number of workers (the paper's processors).
	// Defaults to runtime.GOMAXPROCS(0).
	Workers int

	// StackSize is the per-worker task-pool capacity in descriptors.
	// The direct task stack is a fixed array (no indirections, strict
	// stack discipline). A spawn that finds it full degrades to inline
	// serial execution (Stats.OverflowInlined counts them) unless
	// StrictOverflow is set. Default 8192.
	StackSize int

	// StrictOverflow makes a task-stack overflow panic (the pre-
	// degradation behaviour) instead of inlining the overflowing spawn.
	// Useful in tests and benchmarks where silent serialization would
	// mask a capacity bug.
	StrictOverflow bool

	// PrivateTasks enables the private-task optimization with the
	// trip-wire publication scheme (paper Section III-B). When false,
	// every descriptor is public and every join pays the atomic
	// exchange.
	PrivateTasks bool

	// InitialPublic is the number of public descriptors a worker
	// starts with (and the headroom kept public when the boundary is
	// pulled back down). Default 2.
	InitialPublic int

	// TripDistance: a steal within this many descriptors of the public
	// boundary trips the wire and asks the owner to publish more.
	// Default 1 (the boundary task itself).
	TripDistance int

	// PublishAmount is how many descriptors a trip-wire notification
	// publishes. Default 2.
	PublishAmount int

	// PrivatizeRun is the number of consecutive inlined public joins
	// after which the owner pulls the public boundary back down
	// (dynamic, revocable cut-off). Default 16.
	PrivatizeRun int

	// Profile enables the CPU-time breakdown instrumentation used for
	// the paper's Figure 6 (categories ST, LF, NA, LA, TR). It costs
	// two clock reads around every steal attempt and stolen task.
	Profile bool

	// Span enables the span (critical-path) measurement facility used
	// for Table I. Valid for single-worker pools; see SpanProfiler.
	Span bool

	// StealSampling makes idle thieves probe up to this many candidate
	// victims per attempt and steal from the first that looks
	// stealable (bot descriptor in TASK state), instead of committing
	// to one uniformly random victim (1, the default and the paper's
	// policy). Sampling trades extra read-only probes for fewer failed
	// attempts when few pools hold work — the direction Wool's own
	// later development took. Probes within one attempt are pairwise
	// distinct (capped at 8).
	StealSampling int

	// StealRetain is the last-successful-victim retention policy: after
	// a successful steal the thief returns to the same victim first,
	// dropping it after this many consecutive probes that find nothing.
	// Steals cluster, so the retained victim very often has more work.
	// 0 means the default of 1; negative disables retention (every
	// attempt picks a fresh random victim, the paper's policy).
	StealRetain int

	// Steal selects the victim-selection policy layer (internal/steal):
	// Policy is one of steal.Policies() plus the per-policy parameters
	// (retention budget, sampling width, localized neighborhood/spill).
	// The zero value reproduces the pre-policy behaviour bit for bit —
	// last-victim retention over uniform random, parameterized by the
	// legacy StealSampling/StealRetain fields above (which Defaults
	// folds into this struct; explicit Steal fields win). Steal.Amount
	// is accepted for registry uniformity but the direct task stack
	// only supports taking one task per steal: the descriptor CAS
	// claims exactly one bottom task.
	Steal steal.Config

	// Parking controls whether fully idle workers park on the pool's
	// idle engine once the back-off ladder is exhausted, dropping a
	// quiescent pool to ~0% CPU; producers issue a targeted wake when
	// work appears (see park.go). ParkDefault enables parking unless
	// MaxIdleSleep is negative (pure spinning — a dedicated machine,
	// the paper's setup — implies no parking either). ParkOff
	// reproduces the seed behaviour of sleep-polling forever.
	Parking ParkMode

	// BlockedJoinWait selects what a join does while its task is
	// stolen. The default, WaitLeapfrog, steals from the thief (the
	// paper's choice). WaitSpin just waits — the paper's Figure 6
	// analysis observes that for its workloads "simply waiting would
	// be adequate" (the LA category is small); this option exists to
	// reproduce that ablation. Unrestricted stealing is deliberately
	// not offered: in a direct-style library it suffers the
	// buried-join problem (Section I-b) — stolen work would sit above
	// the blocked join on the worker's stack.
	BlockedJoinWait WaitPolicy

	// LockOSThread pins each worker goroutine to an OS thread, which
	// removes Go-runtime migration noise on multi-core hosts. Leave it
	// off on single-core hosts: pinned spinning threads starve each
	// other between scheduler yields.
	LockOSThread bool

	// MaxIdleSleep caps the back-off sleep of idle workers. Zero means
	// the default of 200µs, which keeps idle pools cheap while
	// bounding added steal latency; negative means never sleep (pure
	// spin + yield), matching a dedicated latency-sensitive machine.
	MaxIdleSleep time.Duration

	// Trace attaches a wooltrace event tracer: every worker records
	// SPAWN/STEAL/LEAPFROG/PUBLISH/PRIVATIZE/PARK/WAKE and stolen-task
	// spans into its per-worker ring (see internal/trace and DESIGN.md
	// §11). The tracer must have at least Workers rings. nil (the
	// default) disables tracing with zero fast-path cost: the worker's
	// ring pointer is nil and every emission site is a plain nil check
	// — no atomics (TestTraceOverheadDisabled).
	Trace *trace.Tracer

	// Chaos attaches a fault-injection injector: every worker consults
	// its per-worker agent at the named protocol points (internal/chaos,
	// DESIGN.md §12), deterministically stretching or failing the
	// windows the steal protocol must survive. The injector must have
	// at least Workers agents. nil (the default) disables injection
	// with zero fast-path cost, exactly like Trace: the worker's agent
	// pointer is nil and every hook is a plain nil check
	// (TestChaosOverheadDisabled). Never enable on production pools.
	Chaos *chaos.Injector

	// Watchdog, when positive, arms a stuck-run detector: a background
	// goroutine that trips when some worker has been continuously
	// blocked in a join for at least this interval while the pool made
	// no progress (no steals, no completions, no publications) and no
	// worker was executing stolen work. On a trip the blocked workers
	// panic with a *WatchdogError carrying a diagnostic bundle, so a
	// protocol bug or a lost-wakeup hang fails the Run loudly instead
	// of spinning forever. Zero (the default) disables it.
	Watchdog time.Duration
}

// ParkMode selects the idle-worker parking behaviour (Options.Parking).
type ParkMode int

// Parking modes.
const (
	// ParkDefault resolves to ParkOn, except when MaxIdleSleep is
	// negative (pure spinning), which implies ParkOff.
	ParkDefault ParkMode = iota
	// ParkOn parks exhausted idle workers on the pool's idle engine.
	ParkOn
	// ParkOff never parks: idle workers sleep-poll forever (the seed
	// behaviour, and the paper's dedicated-machine assumption).
	ParkOff
)

// String names the mode.
func (m ParkMode) String() string {
	switch m {
	case ParkDefault:
		return "default"
	case ParkOn:
		return "on"
	case ParkOff:
		return "off"
	default:
		return fmt.Sprintf("ParkMode(%d)", int(m))
	}
}

// WaitPolicy selects the blocked-join behaviour.
type WaitPolicy int

// Wait policies.
const (
	// WaitLeapfrog steals from the thief of the joined task while
	// blocked (the default; Wagner & Calder's leapfrogging).
	WaitLeapfrog WaitPolicy = iota
	// WaitSpin waits without stealing (a non-greedy scheduler).
	WaitSpin
)

// String names the policy.
func (p WaitPolicy) String() string {
	switch p {
	case WaitLeapfrog:
		return "leapfrog"
	case WaitSpin:
		return "spin"
	default:
		return fmt.Sprintf("WaitPolicy(%d)", int(p))
	}
}

// Defaults returns o with every unset field replaced by its default.
func (o Options) Defaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.StackSize <= 0 {
		o.StackSize = 8192
	}
	if o.InitialPublic <= 0 {
		o.InitialPublic = 2
	}
	if o.TripDistance <= 0 {
		o.TripDistance = 1
	}
	if o.PublishAmount <= 0 {
		o.PublishAmount = 2
	}
	if o.PrivatizeRun <= 0 {
		o.PrivatizeRun = 16
	}
	if o.StealSampling <= 0 {
		o.StealSampling = 1
	}
	if o.StealRetain == 0 {
		o.StealRetain = 1
	}
	// Fold the legacy knobs into the policy config: unset Steal fields
	// inherit StealRetain/StealSampling, and an unset policy name
	// resolves to the historical behaviour (last-victim retention, or
	// plain random when retention is disabled).
	if o.Steal.Policy == "" {
		if o.StealRetain > 0 {
			o.Steal.Policy = steal.LastVictim
		} else {
			o.Steal.Policy = steal.Random
		}
	}
	if o.Steal.Retain == 0 {
		o.Steal.Retain = o.StealRetain
	}
	if o.Steal.Sampling == 0 {
		o.Steal.Sampling = o.StealSampling
	}
	o.Steal = o.Steal.Defaults()
	if o.MaxIdleSleep == 0 {
		o.MaxIdleSleep = 200 * time.Microsecond
	}
	if o.Parking == ParkDefault {
		if o.MaxIdleSleep < 0 {
			o.Parking = ParkOff
		} else {
			o.Parking = ParkOn
		}
	}
	return o
}

// parkAfterFactor scales MaxIdleSleep into the cumulative back-off
// sleep an idle worker pays before parking (default 16 × 200µs ≈ 3.2ms
// of quiet), keeping parking invisible during normal run-to-run gaps.
const parkAfterFactor = 16

// Pool is a work-stealing scheduler instance: a set of workers, each
// with a direct task stack. Create one with NewPool, submit work with
// Run, release the workers with Close.
type Pool struct {
	opts    Options
	workers []*Worker
	idle    *idleEngine // nil when parking is disabled

	shutdown atomic.Bool
	running  atomic.Bool
	wg       sync.WaitGroup

	// panicVal/panicked record the first poisoning cause (task panic or
	// Abort). Writes are first-cause-wins under poisonMu — a mutex, not
	// a sync.Once, because Reset must be able to clear the record for
	// the next request without racing a concurrent Abort's Do (abort.go).
	// Readers load panicked (atomic) and, when set, read panicVal: the
	// Store after the panicVal write orders the pair.
	panicVal any
	panicked atomic.Bool

	// Poison parking (abort.go): instead of exiting their goroutines, a
	// poisoned pool's idle workers block on poisonGate so Reset can
	// revive them for the next request (the serving layer's per-request
	// abort, DESIGN.md §16). poisonWaiters counts workers blocked on
	// the gate; together with the idle engine's parked count it is the
	// quiescence signal Reset waits on. All three fields are guarded by
	// poisonMu; the gate channel is replaced per poison episode.
	poisonMu      sync.Mutex
	poisonWaiters int
	poisonGate    chan struct{}

	// progress is the watchdog's heartbeat: bumped on slow-path
	// milestones (steal commits, stolen-task completions, trip-wire
	// publications). Deliberately never touched on the spawn/join fast
	// path — quiescence of this counter plus a blocked worker is what
	// the watchdog inspects.
	progress atomic.Int64

	// wdErr is the tripped watchdog's verdict; blocked wait loops poll
	// it (watchdogPoll) and panic with it, failing the Run.
	wdErr  atomic.Pointer[WatchdogError]
	wdStop chan struct{}
	wdDone chan struct{}

	startup time.Duration
}

// NewPool creates a pool with opts.Workers workers. Worker 0 is driven
// by the goroutine that calls Run; workers 1..N-1 are goroutines that
// steal until Close.
//
//woolvet:allow ownerprivate -- construction: no worker goroutine exists yet, so every field is still unshared
func NewPool(opts Options) *Pool {
	opts = opts.Defaults()
	if uint64(opts.Workers) > maxWorkers {
		panic(fmt.Sprintf("core: Options.Workers = %d exceeds the %d the STOLEN(thief) state encoding can name (thief index is packed at state>>%d)",
			opts.Workers, maxWorkers, stolenShift))
	}
	if opts.Trace != nil && opts.Trace.Workers() < opts.Workers {
		panic(fmt.Sprintf("core: Options.Trace has %d rings for %d workers; create it with trace.New(Workers, capacity)",
			opts.Trace.Workers(), opts.Workers))
	}
	if opts.Chaos != nil && opts.Chaos.Workers() < opts.Workers {
		panic(fmt.Sprintf("core: Options.Chaos has %d agents for %d workers; create it with chaos.NewInjector(Workers, profile, seed)",
			opts.Chaos.Workers(), opts.Workers))
	}
	t0 := time.Now()
	p := &Pool{opts: opts}
	if opts.Parking == ParkOn && opts.Workers > 1 {
		p.idle = newIdleEngine(opts.Workers, parkAfterFactor*opts.MaxIdleSleep)
	}
	p.workers = make([]*Worker, opts.Workers)
	for i := range p.workers {
		w := &Worker{
			pool:  p,
			idx:   i,
			idle:  p.idle,
			tasks: make([]Task, opts.StackSize),
			pol:   steal.New(opts.Steal, i, opts.Workers),
		}
		w.probe = func(v int) bool { return stealableAt(p.workers[v]) }
		w.prof.on = opts.Profile
		w.genFast = opts.Trace == nil && !opts.Span
		if opts.Trace != nil {
			w.trc = opts.Trace.Ring(i)
		}
		if opts.Chaos != nil {
			w.chs = opts.Chaos.Agent(i)
		}
		if opts.PrivateTasks {
			w.pubShadow = int64(opts.InitialPublic)
		} else {
			w.pubShadow = math.MaxInt64
		}
		w.publicLimit.Store(w.pubShadow)
		p.workers[i] = w
	}
	if opts.Span {
		if opts.Workers != 1 {
			panic("core: Options.Span requires Workers == 1 (span is schedule-independent; measure it serially)")
		}
		p.workers[0].spanProf = NewSpanProfiler()
	}
	p.wg.Add(opts.Workers - 1)
	for _, w := range p.workers[1:] {
		go func(w *Worker) {
			if p.opts.LockOSThread {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			w.idleLoop()
		}(w)
	}
	if opts.Watchdog > 0 {
		p.wdStop = make(chan struct{})
		p.wdDone = make(chan struct{})
		go p.watchdogLoop(opts.Watchdog)
	}
	p.startup = time.Since(t0)
	return p
}

// Workers returns the number of workers in the pool.
func (p *Pool) Workers() int { return len(p.workers) }

// Run executes root on worker 0 (the calling goroutine) while the other
// workers steal, and returns root's result once it — and therefore
// every task it transitively joined — has completed. Run calls must not
// overlap; between calls the pool stays warm (idle workers keep their
// steal loops), which is exactly the repeated-kernel structure of the
// paper's benchmarks.
//
// Abort semantics: a panic anywhere in the task tree — in a stolen
// task (recovered by the thief's runStolen so the descriptor still
// reaches DONE) or in root itself — poisons the pool and re-raises
// from Run with the original panic value. A poisoned pool's task
// stacks may hold unjoined descriptors whose subtrees never ran, so it
// cannot be reused: later Run calls panic with a distinct
// "pool poisoned by earlier task panic" message, the idle workers exit
// their steal loops (they must not execute leftover descriptors of the
// abandoned tree), and only Close remains safe. See DESIGN.md §11.
//
//woolvet:allow ownerprivate -- the calling goroutine IS worker 0's owner for the duration of Run
func (p *Pool) Run(root func(*Worker) int64) int64 {
	if p.shutdown.Load() {
		panic("core: Run on closed Pool")
	}
	if p.panicked.Load() {
		panic(fmt.Sprintf("core: pool poisoned by earlier task panic: %v", p.panicVal))
	}
	if !p.running.CompareAndSwap(false, true) {
		panic(poolerr.ConcurrentRun("core"))
	}
	defer p.running.Store(false)
	// A panic escaping root (or the unjoined-tasks check below) leaves
	// worker 0's stack with stealable descriptors of an abandoned tree:
	// record it so the pool is poisoned before the panic propagates.
	defer func() {
		if r := recover(); r != nil {
			p.recordPanic(r)
			panic(r)
		}
	}()
	w := p.workers[0]
	var res int64
	if w.prof.on {
		// Worker 0's application time is the root's wall time minus
		// the leapfrogging and stealing time it accrued inside joins.
		lf0, la0, st0 := w.prof.lf.Load(), w.prof.la.Load(), w.prof.st.Load()
		t0 := time.Now()
		res = root(w)
		wall := int64(time.Since(t0))
		w.prof.na.Add(wall - ((w.prof.lf.Load() - lf0) + (w.prof.la.Load() - la0) + (w.prof.st.Load() - st0)))
	} else {
		res = root(w)
	}
	if w.top != int(w.bot.Load()) || len(w.ovf) != 0 {
		panic(fmt.Sprintf("core: root returned with %d unjoined tasks on worker 0 (%d overflow-inlined)", w.Depth(), len(w.ovf)))
	}
	if p.panicked.Load() {
		panic(p.panicVal)
	}
	return res
}

// recordPanic stores the first panic raised by a task, poisoning the
// pool; Run re-raises it (and refuses subsequent calls, see Run).
func (p *Pool) recordPanic(r any) {
	p.poisonMu.Lock()
	if !p.panicked.Load() {
		p.panicVal = r
		p.panicked.Store(true)
	}
	p.poisonMu.Unlock()
}

// Close stops the idle workers and waits for them to exit. The pool
// must be quiescent (no Run in flight). Closing a poisoned pool works:
// workers waiting out the poison on the gate (poisonPark) and workers
// parked on the idle engine are both released after the shutdown flag
// is set, so they observe it and exit.
func (p *Pool) Close() {
	if p.shutdown.Swap(true) {
		return
	}
	if p.wdStop != nil {
		close(p.wdStop)
		<-p.wdDone
	}
	// Release poison-parked workers. Ordering: shutdown is already set,
	// so a worker that reaches poisonPark after this drain sees it under
	// poisonMu and returns without waiting (no lost wake-up).
	p.poisonMu.Lock()
	if p.poisonGate != nil {
		close(p.poisonGate)
		p.poisonGate = nil
	}
	p.poisonMu.Unlock()
	if p.idle != nil {
		p.idle.wakeAll()
	}
	p.wg.Wait()
}

// ParkedWorkers returns the number of workers currently parked on the
// pool's idle engine (0 when parking is disabled). Racy by nature; use
// it for monitoring and tests, not scheduling decisions.
func (p *Pool) ParkedWorkers() int {
	if p.idle == nil {
		return 0
	}
	return int(p.idle.parked.Load())
}

// Stats aggregates per-worker counters. Call it on a quiescent pool
// (between Run calls or after Close) for exact numbers.
func (p *Pool) Stats() Stats {
	var s Stats
	for i := range p.workers {
		ws := p.WorkerStats(i)
		s.add(&ws)
	}
	return s
}

// settle waits, while no Run is in flight, until no idle worker is
// inside a steal attempt or holding unflushed counters. Idle workers
// neither attempt nor count steals without a Run, so the counters
// then hold still: the quiescent accessors settle first, which makes
// Stats and ResetStats right after a Run exact.
func (p *Pool) settle() {
	for _, w := range p.workers[1:] {
		for w.stealing.Load() && !p.running.Load() {
			runtime.Gosched()
		}
	}
}

// WorkerStats returns the counters of a single worker.
//
//woolvet:allow ownerprivate -- quiescent-pool accessor: callers read stats between Run calls (see Stats)
func (p *Pool) WorkerStats(i int) Stats {
	p.settle()
	w := p.workers[i]
	s := w.stats
	s.StealAttempts = w.stealAttempts.Load()
	s.Steals = w.steals.Load()
	s.Backoffs = w.backoffs.Load()
	s.RetainedSteals = w.retainedSteals.Load()
	s.Parks = w.parks.Load()
	s.Wakes = w.wakes.Load()
	return s
}

// StatsSnapshot returns per-worker counters without requiring the pool
// to be quiescent, deliberately lifting the Stats/WorkerStats contract
// for live monitoring (woolrun's trace/matrix plumbing, dashboards).
// The thief-path counters are atomic loads and always coherent; the
// owner-path counters (spawns, joins, publications, ...) are plain
// fields read while their owner may be writing, so a live snapshot can
// observe slightly stale or torn values on 32-bit platforms. Use it
// for observability, never for correctness decisions; Stats() between
// Run calls remains the exact accessor. See DESIGN.md §11.
//
//woolvet:allow ownerprivate -- documented-racy live monitoring accessor; exactness is WorkerStats's contract, not ours
func (p *Pool) StatsSnapshot() []Stats {
	out := make([]Stats, len(p.workers))
	for i, w := range p.workers {
		s := w.stats
		s.StealAttempts = w.stealAttempts.Load()
		s.Steals = w.steals.Load()
		s.Backoffs = w.backoffs.Load()
		s.RetainedSteals = w.retainedSteals.Load()
		s.Parks = w.parks.Load()
		s.Wakes = w.wakes.Load()
		out[i] = s
	}
	return out
}

// ResetStats zeroes all counters (quiescent pools only).
//
//woolvet:allow ownerprivate -- quiescent-pool mutator by contract
func (p *Pool) ResetStats() {
	p.settle()
	for _, w := range p.workers {
		w.stats = Stats{}
		w.stealAttempts.Store(0)
		w.steals.Store(0)
		w.backoffs.Store(0)
		w.retainedSteals.Store(0)
		w.parks.Store(0)
		w.wakes.Store(0)
		w.prof.reset()
	}
}

// Profile returns the aggregated CPU-time breakdown (Figure 6
// categories). TR is the pool's startup cost; per-Run shutdown is
// negligible because the pool stays warm.
//
//woolvet:allow ownerprivate -- quiescent-pool accessor; prof's inner counters are atomics besides
func (p *Pool) Profile() TimeBreakdown {
	var b TimeBreakdown
	b.TR = p.startup
	for _, w := range p.workers {
		b.ST += time.Duration(w.prof.st.Load())
		b.LF += time.Duration(w.prof.lf.Load())
		b.NA += time.Duration(w.prof.na.Load())
		b.LA += time.Duration(w.prof.la.Load())
	}
	return b
}

// SpanProfiler returns the span measurement facility of worker 0, or
// nil when Options.Span is off.
//
//woolvet:allow ownerprivate -- Span requires Workers == 1; the field is set once in NewPool and immutable after
func (p *Pool) SpanProfiler() *SpanProfiler { return p.workers[0].spanProf }

// Stats are the scheduler's event counters, the raw material for the
// paper's N_T (tasks spawned) and N_M (migrations = steals) and thus
// for the granularity measures G_T and G_L.
type Stats struct {
	Spawns              int64 // tasks created (N_T)
	JoinsInlinedPublic  int64 // joins that inlined a public task (atomic exchange paid)
	JoinsInlinedPrivate int64 // joins that inlined a private task (no atomics)
	JoinsStolen         int64 // joins that found their task stolen
	Steals              int64 // successful steals (N_M)
	StealAttempts       int64 // steal attempts, successful or not
	Backoffs            int64 // steals aborted by the bot re-check (ABA guard)
	LeapSteals          int64 // successful steals made while leapfrogging
	Publications        int64 // trip-wire publications
	Privatizations      int64 // public-boundary pull-downs
	RetainedSteals      int64 // successful steals from the retained victim (StealRetain hits)
	Parks               int64 // times a worker parked on the idle engine
	Wakes               int64 // targeted wakes this worker issued to parked peers
	OverflowInlined     int64 // spawns degraded to inline execution on task-stack overflow
}

func (s *Stats) add(o *Stats) {
	s.Spawns += o.Spawns
	s.JoinsInlinedPublic += o.JoinsInlinedPublic
	s.JoinsInlinedPrivate += o.JoinsInlinedPrivate
	s.JoinsStolen += o.JoinsStolen
	s.Steals += o.Steals
	s.StealAttempts += o.StealAttempts
	s.Backoffs += o.Backoffs
	s.LeapSteals += o.LeapSteals
	s.Publications += o.Publications
	s.Privatizations += o.Privatizations
	s.RetainedSteals += o.RetainedSteals
	s.Parks += o.Parks
	s.Wakes += o.Wakes
	s.OverflowInlined += o.OverflowInlined
}

// Joins returns the total number of joins.
func (s Stats) Joins() int64 {
	return s.JoinsInlinedPublic + s.JoinsInlinedPrivate + s.JoinsStolen
}

// TimeBreakdown is the Figure 6 instrumentation: CPU time spent in
// startup/shutdown (TR), application code acquired through leapfrogging
// (LA), other application code (NA), stealing (ST) and leapfrogging
// search (LF).
type TimeBreakdown struct {
	TR, LA, NA, ST, LF time.Duration
}

// Total returns the sum of all categories.
func (b TimeBreakdown) Total() time.Duration { return b.TR + b.LA + b.NA + b.ST + b.LF }

// profState accumulates the Figure 6 time categories in nanoseconds.
// Atomics because idle workers keep charging ST with no happens-before
// edge to a Profile() reader. ST is a sampled estimate: idleLoop times
// only every stSamplePeriod-th failed attempt and scales it up, so
// enabling Profile no longer doubles the idle-loop cost. tick is the
// sampling phase, owner-private to the idle loop (not reset by
// ResetStats, which may run while idle loops are live).
type profState struct {
	on             bool
	tick           uint64
	st, lf, na, la atomic.Int64
}

func (ps *profState) reset() {
	ps.st.Store(0)
	ps.lf.Store(0)
	ps.na.Store(0)
	ps.la.Store(0)
}
