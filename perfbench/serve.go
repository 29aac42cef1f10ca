package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gowool/internal/core"
	"gowool/internal/sched"
	"gowool/internal/serve"
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/stress"
)

// Serve workloads: requests through a serve.Server with lanes() lanes.
// Each run has three phases:
//
//  1. closed loop: lanes() clients, each submitting its next request
//     when its previous one returns — the request latency (lat_p50_us,
//     e2e.lat_p99_us) — then again with maxWindow requests outstanding
//     per client, which keeps every lane busy: the capacity
//     (ops_per_s);
//  2. open loop at a fixed rate, each request timed from its due time
//     to the moment the client sees it complete (e2e.open_p50/p99_us);
//  3. a ladder of fixed rates against a fixed p99 limit: the highest
//     rate met with no failure, no growing backlog and a generator
//     that kept up (e2e.max_rate_rps).
//
// The open-loop generator is two goroutines: the sender (pinned to its
// thread, sleeping in nanosleep until each due time — it never spins)
// and the collector, which blocks in select on the oldest outstanding
// ticket of each request class.

// Request classes.
const (
	kindInteractive = iota // fib(10); latency measured
	kindBulk               // stress(6, 4096), serve-mixed only
	kindCancelled          // bulk, cancelled by the caller after send
	numKinds
)

const (
	smallFib   = 10   // interactive request: fib(10)
	bulkHeight = 6    // bulk request: a stress(6, 4096) tree
	bulkIters  = 4096 //
	deadline   = time.Second
	maxBacklog = 512 // outstanding requests that end a ladder step
	// intakeDepth exceeds maxBacklog, so the sender never blocks
	// handing a request to a collector that is behind by a full backlog.
	intakeDepth = 1024
	ringSize    = 8192 // open-loop requests in flight or being recorded
)

// serveSpec describes one serve workload.
type serveSpec struct {
	name  string
	mixed bool
	// bulkShare is the share of requests sent by the bulk tenant, and
	// cancelShare the share of those the caller cancels.
	bulkShare, cancelShare float64
	fixedRate              float64   // open-loop phase, requests/s
	ladder                 []float64 // ladder rates, requests/s
	limit                  int64     // ladder p99 limit, ns
	warm                   int       // warm-up requests of set-up
}

func serveSmall() serveSpec {
	return serveSpec{
		name:      "serve-small",
		fixedRate: 10e3,
		ladder:    geometric(10e3, 1.25, 10),
		limit:     int64(time.Millisecond),
		warm:      4000,
	}
}

func serveMixed() serveSpec {
	return serveSpec{
		name:        "serve-mixed",
		mixed:       true,
		bulkShare:   0.2,
		cancelShare: 1.0 / 8,
		fixedRate:   1500,
		ladder:      geometric(1500, 1.25, 10),
		limit:       int64(10 * time.Millisecond),
		warm:        1500,
	}
}

// geometric returns n rates from lo, each factor times the previous,
// rounded to 100 requests/s.
func geometric(lo, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i, r := 0, lo; i < n; i, r = i+1, r*factor {
		out[i] = float64(int64(r/100+0.5) * 100)
	}
	return out
}

// req is one scheduled request and what happened to it.
type req struct {
	kind     uint8
	id       int64
	due      int64 // clock ns
	cancelIn int64 // kindCancelled: ns after send

	t      *serve.Ticket
	cancel context.CancelFunc
	// clock stamps: Submit call, caller's cancel(), first root
	// callback (traced runs only), completion seen by the client.
	submitStart, submitEnd, cancelAt, done int64
	first                                  atomic.Int64
	// busy is set while the sender or collector may still use r.
	busy atomic.Bool
}

// serveRun is one workload run's state.
type serveRun struct {
	spec   serveSpec
	cfg    config
	srv    *serve.Server
	lanes  *laneRecorder // trace runs: the lane pools, for core stats
	tenant [numKinds]string
	want   [numKinds]int64
	jobs   [numKinds]serve.Job
	base   [numKinds]sched.RecJob
	ring   []req // open-loop requests, reused round-robin
	lat    usSamples
	lag    usSamples
	cancel usSamples
	// closed-loop latencies (interactive requests), one buffer per client
	closedLat [2]usSamples
	// layer samples of the traced open loop, written by the collector
	layer  [numLayerSamples]usSamples
	hp     *heapPeak
	log    *spanLog // non-nil while tracing
	res    *result
	nextID atomic.Int64
}

// Per-request layer samples of a traced open loop.
const (
	lsSubmit   = iota // the Submit call
	lsDispatch        // Submit return → first root callback
	lsService         // first root callback → the client sees completion
	lsTicket          // Ticket.Latency: submit → ticket finished
	lsWake            // ticket finished → the client sees completion
	numLayerSamples
)

// stepResult is one open-loop phase or ladder step.
type stepResult struct {
	rate               float64
	sent, failed, shed int64
	offered            float64 // achieved send rate
	latP50, latP99     float64 // µs, interactive requests
	lagP50, lagP99     float64 // µs
	// pending is Server.Stats' queued requests after each quarter of
	// the step's sends.
	pending              [4]int
	aborted              bool // backlog exceeded maxBacklog
	cancelled, midflight int64
}

// met reports whether a ladder step met its rate: the p99 within the
// limit, nothing failed or shed, the generator kept up, and the backlog
// did not grow — the queue through the step's second half stayed
// within 16 requests of its first half (one deep sample is a burst,
// not growth).
func (s stepResult) met(limit int64) bool {
	return !s.aborted && s.failed == 0 && s.shed == 0 &&
		s.latP99*1e3 <= float64(limit) &&
		s.offered >= 0.97*s.rate &&
		!s.backlogGrew()
}

func (s stepResult) backlogGrew() bool {
	return min(s.pending[2], s.pending[3]) > max(s.pending[0], s.pending[1])+16
}

func (s stepResult) pendingMax() int {
	return max(s.pending[0], s.pending[1], s.pending[2], s.pending[3])
}

func runServe(c config, spec serveSpec) (*result, error) {
	r := &result{metrics: map[string]float64{}}
	sr := &serveRun{spec: spec, cfg: c, res: r}
	sr.base[kindInteractive] = fibw.Job(smallFib, 1)
	sr.want[kindInteractive] = fibw.Serial(smallFib)
	if spec.mixed {
		sr.tenant = [numKinds]string{"interactive", "bulk", "bulk"}
		sr.base[kindBulk] = stress.Job(bulkHeight, bulkIters, 1)
		sr.base[kindCancelled] = sr.base[kindBulk]
		sr.want[kindBulk] = stress.Serial(bulkHeight, bulkIters)
		sr.want[kindCancelled] = sr.want[kindBulk]
	}
	for k := range sr.jobs {
		if sr.base[k].Leaf != nil {
			sr.jobs[k] = serve.Rec(sr.base[k])
		}
	}
	measure := c.seconds
	if c.trace {
		measure /= 2
	}
	// The sample buffers hold the largest open-loop phase: the fixed
	// rate phase (the traced one is longer) or a ladder step.
	share := openShare
	if c.trace {
		share = tracedOpenShare
	}
	maxReqs := int(max(spec.fixedRate*share*measure, spec.ladder[len(spec.ladder)-1]*ladderShare*measure/float64(len(spec.ladder)))*1.1) + 64

	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		t0 := now()
		sr.ring = make([]req, ringSize)
		sr.lat, sr.lag, sr.cancel = newSamples(maxReqs), newSamples(maxReqs), newSamples(maxReqs)
		for ci := range sr.closedLat {
			sr.closedLat[ci] = newSamples(closedCap)
		}
		if c.trace {
			for k := range sr.layer {
				sr.layer[k] = newSamples(maxReqs)
			}
		}
		if err := sr.start(); err != nil {
			return nil, err
		}
		sr.closedLoop(sr.spec.warm, 0, uint64(1000+i), maxWindow)
		setups = append(setups, float64(now()-t0)/1e9)
		if i < setupRounds-1 {
			sr.srv.Close()
		}
	}
	r.set("setup_s", median(setups))
	runtime.GC() // drop the earlier rounds' servers and buffers

	st0, done0 := sr.laneStats(), sr.completed()
	// One request in flight per client: allocations per request are
	// an exact count here, which a window would blur.
	var mem memDelta
	mem.start()
	_, closedP50, closedP99, closedN := sr.closedPhases(latencyShare*measure, 1, 1)
	mem.stop()
	r.set("lat_p50_us", closedP50)
	r.set("e2e.lat_p99_us", closedP99)
	r.set("e2e.allocs_per_op", mem.mallocs()/float64(closedN))
	capacity, _, _, _ := sr.closedPhases(capacityShare*measure, 4, maxWindow)
	r.set("ops_per_s", capacity)

	gc := memDelta{}
	gc.start()
	sr.hp = newHeapPeak()
	fixed := sr.openLoop(spec.fixedRate, openShare*measure, 2)
	r.set("heap_peak_mb", sr.hp.mb())
	sr.hp = nil
	r.set("e2e.open_p50_us", fixed.latP50)
	r.set("e2e.open_p99_us", fixed.latP99)
	r.set("gen.lag_p99_us", fixed.lagP99)
	r.set("gen.offered_rps", fixed.offered)
	if spec.mixed {
		r.set("e2e.cancel_p50_us", sr.cancel.q(0.5))
		r.set("e2e.cancel_p99_us", sr.cancel.q(0.99))
	}
	r.note("open loop @ %.0f rps: %s", spec.fixedRate, fixed)
	r.note("  p50 us by chunk %.0f", sr.lat.chunks(func(c []float64) float64 { return quantile(c, 0.5) }))
	r.note("  p99 us by chunk %.0f", sr.lat.chunks(func(c []float64) float64 { return quantile(c, 0.99) }))

	pendingMax := fixed.pendingMax()
	r.set("e2e.max_rate_rps", 0) // until a rung is met
	stepSecs := ladderShare * measure / float64(len(spec.ladder))
	for i, rate := range spec.ladder {
		s := sr.openLoop(rate, stepSecs, uint64(10+i))
		pendingMax = max(pendingMax, s.pendingMax())
		ok := s.met(spec.limit)
		r.note("ladder %2d @ %6.0f rps: %s met=%v", i, rate, s, ok)
		if !ok {
			break
		}
		r.set("e2e.max_rate_rps", rate)
	}
	gc.stop()
	r.set("runtime.gc_cycles", gc.gcCycles())
	r.set("runtime.gc_pause_total_us", gc.gcPauseUs())
	sr.coreMetrics(statsDelta(sr.laneStats(), st0), sr.completed()-done0)

	if c.trace {
		// Traced pass: the same closed and open loops with spans and
		// per-request first-callback stamps.
		// The closed loops record spans too, so their overhead counts,
		// but the written spans and the layer table are the open loop's
		// (the phase the serve.* metrics come from) and the probes'.
		sr.log = newSpanLog(1 << 19)
		_, tclosedP50, _, _ := sr.closedPhases(0.25*measure, 3, 1)
		tcapacity, _, _, _ := sr.closedPhases(0.25*measure, 5, maxWindow)
		r.note("traced closed loops: %d spans recorded, not written", sr.log.n.Load())
		sr.log.reset()
		topen := sr.openLoop(spec.fixedRate, tracedOpenShare*measure, 2)
		sr.layerMetrics(topen)
		r.set("trace.ops_overhead_share", 1-tcapacity/capacity)
		r.set("trace.lat_p50_overhead_share", tclosedP50/closedP50-1)
		r.note("tracing overhead (traced vs untraced pass): ops/s %+.2f%%, p50 %+.2f%%; open loop p50 %+.2f%%, p99 %+.2f%%",
			100*(tcapacity/capacity-1), 100*(tclosedP50/closedP50-1), 100*(topen.latP50/fixed.latP50-1), 100*(topen.latP99/fixed.latP99-1))
		pendingMax = max(pendingMax, topen.pendingMax())
	}
	r.set("serve.pending_max", float64(pendingMax))

	sr.srv.Close()
	st := sr.srv.Stats()
	var shedO, shedD, shedC int64
	for _, t := range st.Tenants {
		shedO += t.ShedOverload
		shedD += t.ShedDeadline
		shedC += t.ShedCircuitOpen
		if t.Failed != 0 {
			r.mismatch("tenant %q: %d requests failed", t.Name, t.Failed)
		}
	}
	r.set("resilience.shed_overload", float64(shedO))
	r.set("resilience.shed_deadline", float64(shedD))
	r.set("resilience.shed_circuit", float64(shedC))
	r.set("resilience.quarantines", float64(st.Quarantines))
	r.set("resilience.replacements", float64(st.Replacements))
	r.set("e2e.fail_ratio", ratio(float64(r.failed), float64(r.attempted)))

	if !c.trace {
		return r, nil
	}
	probeLayers(r, sr.log, sr.base[kindInteractive], func() int64 { return fibw.Serial(smallFib) })
	// A 1-wide lane runs the request's tree on one core worker, the
	// path the sched probe times: its cost per spawned task.
	r.set("core.ns_per_task", r.metrics["sched.runrec_us_p50"]*1e3/float64(fibw.Tasks(smallFib)))
	return r, finishTrace(c, r, sr.log, spec.name)
}

func (s stepResult) String() string {
	return fmt.Sprintf("sent=%d offered=%.0f/s p50=%.1fus p99=%.1fus lag p50=%.1fus p99=%.1fus pending %v failed=%d shed=%d aborted=%v cancelled=%d",
		s.sent, s.offered, s.latP50, s.latP99, s.lagP50, s.lagP99, s.pending, s.failed, s.shed, s.aborted, s.cancelled)
}

// start builds the server: default options with lanes() lanes; on
// serve-mixed two equal-weight tenants. Trace runs build the lanes
// through a recording backend so the lanes' core counters can be read.
func (sr *serveRun) start() error {
	o := serve.Options{Workers: lanes()}
	if sr.spec.mixed {
		o.Tenants = []serve.Tenant{{Name: "interactive", Weight: 1}, {Name: "bulk", Weight: 1}}
	}
	if sr.cfg.trace {
		sr.lanes = recordLanes()
		o.Backend = sr.lanes.name
	}
	srv, err := serve.New(o)
	if err != nil {
		return err
	}
	sr.srv = srv
	return nil
}

func (sr *serveRun) completed() int64 {
	var n int64
	for _, t := range sr.srv.Stats().Tenants {
		n += t.Completed + t.Cancelled + t.Failed
	}
	return n
}

func (sr *serveRun) pending() int {
	n := 0
	for _, t := range sr.srv.Stats().Tenants {
		n += t.Pending
	}
	return n
}

// pickKind draws a request class from the workload's mix.
func (sr *serveRun) pickKind(rng *rand.Rand) uint8 {
	if !sr.spec.mixed || rng.Float64() >= sr.spec.bulkShare {
		return kindInteractive
	}
	if rng.Float64() < sr.spec.cancelShare {
		return kindCancelled
	}
	return kindBulk
}

// submit sends r, stamping the Submit call.
func (sr *serveRun) submit(r *req) error {
	ctx := context.Background()
	r.cancel = nil
	if sr.spec.mixed {
		ctx, r.cancel = context.WithTimeout(ctx, deadline)
	}
	job := sr.jobs[r.kind]
	if sr.log != nil {
		job = sr.tracedJob(r)
	}
	r.first.Store(0)
	r.submitStart = now()
	t, err := sr.srv.Submit(ctx, sr.tenant[r.kind], job)
	r.submitEnd = now()
	r.t = t
	if err != nil && r.cancel != nil {
		r.cancel()
	}
	return err
}

// tracedJob wraps the request's job so its first root callback stamps
// r.first (the moment a lane starts running it).
func (sr *serveRun) tracedJob(r *req) serve.Job {
	j := sr.base[r.kind]
	leaf, root := j.Leaf, j.Root
	j.Leaf = func(n int64) (int64, bool) {
		if n == root {
			r.first.Store(now())
		}
		return leaf(n)
	}
	return serve.Rec(j)
}

// check classifies a finished request: the value must match the serial
// reference; a caller-cancelled request may also end with its
// context's error. Reports whether the request failed.
func (sr *serveRun) check(r *req) bool {
	v, err := r.t.Wait()
	if err == nil && v == sr.want[r.kind] {
		return false
	}
	if r.kind == kindCancelled && errors.Is(err, context.Canceled) {
		return false
	}
	sr.res.mismatch("%s request %d: value %d err %v, want %d", sr.tenant[r.kind], r.id, v, err, sr.want[r.kind])
	return true
}

// closedLoop runs lanes() clients, each keeping window requests
// outstanding and sending the next one only when one of its own
// completes, for n requests in total (n > 0) or for seconds. It
// returns completed requests per second and their count. The caller's
// goroutine is client 0. Each client waits on all its slots at once,
// so a slow bulk request does not hide a finished interactive one.
func (sr *serveRun) closedLoop(n int, seconds float64, seed uint64, window int) (float64, int64) {
	clients := lanes()
	var wg sync.WaitGroup
	var total atomic.Int64
	var failed atomic.Int64
	start := now()
	end := start + int64(seconds*1e9)
	client := func(ci int) {
		rng := rand.New(rand.NewPCG(sr.cfg.seed, seed<<8|uint64(ci)))
		var slots [maxWindow]req
		var roots [maxWindow]int32
		var busy [maxWindow]bool
		sent, inFlight := 0, 0
		done := func(k int) <-chan struct{} {
			if !busy[k] {
				return nil
			}
			return slots[k].t.Done()
		}
		for {
			for k := 0; k < window; k++ {
				if busy[k] || (n > 0 && sent >= n/clients) || (n == 0 && now() >= end) {
					continue
				}
				r := &slots[k]
				r.kind = sr.pickKind(rng)
				if r.kind == kindCancelled {
					r.kind = kindBulk // the closed loop does not cancel
				}
				r.id = sr.newID()
				sent++
				if err := sr.submit(r); err != nil {
					failed.Add(1)
					sr.res.mismatch("closed loop submit: %v", err)
					continue
				}
				roots[k] = -1
				if sr.log != nil {
					roots[k] = sr.log.reserve()
				}
				busy[k] = true
				inFlight++
			}
			if inFlight == 0 {
				return
			}
			var k int
			select {
			case <-done(0):
				k = 0
			case <-done(1):
				k = 1
			case <-done(2):
				k = 2
			case <-done(3):
				k = 3
			}
			r := &slots[k]
			busy[k] = false
			inFlight--
			r.done = now()
			if sr.check(r) {
				failed.Add(1)
			}
			if r.cancel != nil {
				r.cancel()
			}
			sr.spans(r, roots[k], r.submitStart)
			if n == 0 && r.kind == kindInteractive {
				sr.closedLat[ci].add(r.done - r.submitStart)
			}
			total.Add(1)
		}
	}
	for ci := 1; ci < clients; ci++ {
		wg.Add(1)
		go func() { defer wg.Done(); client(ci) }()
	}
	client(0)
	wg.Wait()
	if n == 0 {
		sr.res.attempted += total.Load() + failed.Load()
		sr.res.failed += failed.Load()
	}
	return float64(total.Load()) / (float64(now()-start) / 1e9), total.Load()
}

// maxWindow is the largest closed-loop window (closedLoop's select has
// one case per slot).
const maxWindow = 4

// closedPhases runs the closed loop for seconds as closedChunks
// back-to-back sub-phases and returns the medians of the sub-phases'
// rate and interactive latency p50 and p99, and the total completed
// requests (see usSamples.chunked for why medians).
func (sr *serveRun) closedPhases(seconds float64, seed uint64, window int) (rate, p50, p99 float64, total int64) {
	rates := make([]float64, closedChunks)
	p50s := make([]float64, closedChunks)
	p99s := make([]float64, closedChunks)
	for i := range rates {
		var n int64
		for ci := range sr.closedLat {
			sr.closedLat[ci].reset()
		}
		rates[i], n = sr.closedLoop(0, seconds/closedChunks, seed<<4|uint64(i), window)
		lat := append(f64(sr.closedLat[0].v), f64(sr.closedLat[1].v)...)
		p50s[i], p99s[i] = quantile(lat, 0.5), quantile(lat, 0.99)
		total += n
	}
	sr.res.note("closed loop, window %d, by sub-phase: req/s %.0f; p50 us %.1f", window, rates, p50s)
	return median(rates), median(p50s), median(p99s), total
}

const (
	closedChunks = 8
	closedCap    = 1 << 16 // latencies per client per sub-phase
)

// Shares of the measured time: the closed loop with one request per
// client (latency) and with maxWindow (capacity), the fixed-rate open
// loop, the ladder.
const (
	latencyShare  = 0.2
	capacityShare = 0.2
	openShare     = 0.35
	ladderShare   = 0.25

	// The traced pass: a quarter each of latency and capacity, the
	// rest open loop.
	tracedOpenShare = 0.5
)

func (sr *serveRun) newID() int64 { return sr.nextID.Add(1) }

// spans records a finished request's span tree under the reserved
// root id: Submit, dispatch (Submit return → first root callback),
// service (first callback → the client sees completion), Wait (ticket
// finished → the client sees it) and, for cancelled requests, cancel
// (the caller's cancel() → the client sees completion).
func (sr *serveRun) spans(r *req, root int32, start int64) {
	l := sr.log
	if l == nil || root < 0 {
		return
	}
	l.fill(root, -1, r.id, "request", start, r.done)
	l.add(root, r.id, "Submit", r.submitStart, r.submitEnd)
	first := r.first.Load()
	finished := r.finished()
	if first != 0 {
		// A lane may start the request before Submit returns; the
		// clamped span is then empty.
		l.add(root, r.id, "dispatch", r.submitEnd, max(first, r.submitEnd))
		l.add(root, r.id, "service", max(first, r.submitEnd), finished)
	}
	l.add(root, r.id, "Wait", finished, r.done)
	if r.kind == kindCancelled {
		l.add(root, r.id, "cancel", r.cancelAt, r.done)
	}
}

// openLoop runs one open-loop phase at rate for seconds.
func (sr *serveRun) openLoop(rate, seconds float64, seed uint64) stepResult {
	// One P per goroutine that must run at once: the lanes, the sender
	// and the collector. With fewer, a sender waking from its sleep
	// waits for a lane's job to finish before it can send. The closed
	// loops keep the default: their clients and lanes hand off on
	// shared Ps without waking threads.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(lanes() + 2))
	res := stepResult{rate: rate}
	sr.lat.reset()
	sr.lag.reset()
	sr.cancel.reset()
	t0 := now() + 1e6 // 1 ms to start the collector

	intake := make(chan *req, intakeDepth)
	var seen atomic.Int64
	var failed atomic.Int64
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		sr.collect(intake, &seen, &failed, &res)
	}()

	unlock := lockGenerator()
	var pend []*req // sent, awaiting their cancel
	fire := func(upTo int64) {
		for len(pend) > 0 && pend[0].submitEnd+pend[0].cancelIn <= upTo {
			r := pend[0]
			pend = pend[1:]
			r.cancelAt = now()
			r.cancel()
			intake <- r
		}
	}
	// The schedule: inter-arrival gaps uniform in [0.5, 1.5] × the
	// mean, classes drawn from the mix, cancel delays uniform in
	// [100, 300] µs after send — all from the seed.
	rng := rand.New(rand.NewPCG(sr.cfg.seed, seed))
	mean, due := 1e9/rate, float64(t0)
	var sent, lastSend int64
	n := int(rate * seconds)
	for i := 0; i < n; i++ {
		if q := 4 * i / n; i > 0 && q != 4*(i-1)/n {
			res.pending[q-1] = sr.pending()
		}
		r := &sr.ring[i%len(sr.ring)]
		if r.busy.Load() {
			res.aborted = true // a request ringSize sends old is unfinished
			break
		}
		due += mean * (0.5 + rng.Float64())
		r.due, r.kind, r.cancelIn, r.cancelAt, r.done = int64(due), sr.pickKind(rng), 0, 0, 0
		if r.kind == kindCancelled {
			r.cancelIn = int64(100e3 + 200e3*rng.Float64())
		}
		for {
			next := r.due
			if len(pend) > 0 {
				next = min(next, pend[0].submitEnd+pend[0].cancelIn)
			}
			sleepUntil(next)
			fire(now())
			if now() >= r.due {
				break
			}
		}
		if sent-seen.Load() > maxBacklog {
			res.aborted = true
			break
		}
		r.id = sr.newID()
		r.busy.Store(true)
		if err := sr.submit(r); err != nil {
			r.busy.Store(false)
			res.shed++
			sr.res.mismatch("open loop @ %.0f rps submit: %v", rate, err)
			continue
		}
		sent++
		lastSend = r.submitStart
		sr.lag.add(r.submitStart - r.due)
		if r.kind == kindCancelled {
			// keep pend ordered by cancel time
			at := r.submitEnd + r.cancelIn
			k := len(pend)
			pend = append(pend, r)
			for k > 0 && pend[k-1].submitEnd+pend[k-1].cancelIn > at {
				pend[k] = pend[k-1]
				k--
			}
			pend[k] = r
		} else {
			intake <- r
		}
		if sr.hp != nil {
			sr.hp.poll(r.submitEnd)
		}
	}
	res.pending[3] = sr.pending()
	for len(pend) > 0 {
		sleepUntil(pend[0].submitEnd + pend[0].cancelIn)
		fire(now())
	}
	unlock()
	close(intake)
	<-collected

	res.sent = sent
	res.failed = failed.Load()
	if sent > 0 && lastSend > t0 {
		res.offered = float64(sent) / (float64(lastSend-t0) / 1e9)
	}
	res.latP50, res.latP99 = sr.lat.chunked(0.5), sr.lat.chunked(0.99)
	res.lagP50, res.lagP99 = sr.lag.q(0.5), sr.lag.q(0.99)
	sr.res.attempted += sent + res.shed
	sr.res.failed += res.failed + res.shed
	return res
}

// collect is the open loop's client side: it waits on the oldest
// outstanding request of each class and records each completion.
// Requests of one class finish nearly in order (equal-sized jobs), so
// waiting on the oldest one sees every completion within microseconds.
func (sr *serveRun) collect(intake <-chan *req, seen, failed *atomic.Int64, res *stepResult) {
	var fifo [numKinds][]*req
	head := func(k int) <-chan struct{} {
		if len(fifo[k]) == 0 {
			return nil
		}
		return fifo[k][0].t.Done()
	}
	finish := func(k int) {
		r := fifo[k][0]
		fifo[k] = fifo[k][1:]
		r.done = now()
		if sr.check(r) {
			failed.Add(1)
		}
		if r.cancel != nil && k != kindCancelled {
			r.cancel()
		}
		switch k {
		case kindInteractive:
			sr.lat.add(r.done - r.due)
		case kindCancelled:
			sr.cancel.add(r.done - r.cancelAt)
			res.cancelled++
			if f := r.first.Load(); f != 0 && f < r.cancelAt {
				res.midflight++
			}
		}
		if sr.log != nil {
			sr.spans(r, sr.log.reserve(), r.due)
			sr.layerSamples(r)
		}
		r.busy.Store(false)
		seen.Add(1)
	}
	in := intake
	for {
		if in == nil && len(fifo[0]) == 0 && len(fifo[1]) == 0 && len(fifo[2]) == 0 {
			return
		}
		select {
		case r, ok := <-in:
			if !ok {
				in = nil
				continue
			}
			fifo[r.kind] = append(fifo[r.kind], r)
		case <-head(kindInteractive):
			finish(kindInteractive)
		case <-head(kindBulk):
			finish(kindBulk)
		case <-head(kindCancelled):
			finish(kindCancelled)
		}
	}
}

// finished estimates when the ticket finished: Ticket.Latency counts
// from a stamp taken inside Submit, so this is at most the pre-stamp
// part of Submit (lock and admission checks) early.
func (r *req) finished() int64 { return r.submitStart + int64(r.t.Latency()) }

// layerSamples records a traced request's per-layer times. dispatch is
// negative when a lane started the request before Submit returned.
func (sr *serveRun) layerSamples(r *req) {
	sr.layer[lsSubmit].add(r.submitEnd - r.submitStart)
	if first := r.first.Load(); first != 0 {
		sr.layer[lsDispatch].add(first - r.submitEnd)
		sr.layer[lsService].add(r.done - first)
	}
	sr.layer[lsTicket].add(int64(r.t.Latency()))
	sr.layer[lsWake].add(r.done - r.finished())
}

// layerMetrics reports the serve.* per-layer metrics of the traced
// open-loop phase.
func (sr *serveRun) layerMetrics(open stepResult) {
	r, l := sr.res, &sr.layer
	r.set("serve.submit_us_p50", l[lsSubmit].q(0.5))
	r.set("serve.submit_us_p99", l[lsSubmit].q(0.99))
	r.set("serve.dispatch_us_p50", l[lsDispatch].q(0.5))
	r.set("serve.dispatch_us_p99", l[lsDispatch].q(0.99))
	r.set("serve.service_us_p50", l[lsService].q(0.5))
	r.set("serve.ticket_latency_us_p50", l[lsTicket].q(0.5))
	r.set("serve.wake_us_p50", l[lsWake].q(0.5))
	r.set("serve.cancel_midflight_share", ratio(float64(open.midflight), float64(open.cancelled)))
}

// coreMetrics reports the lanes' core counters over n requests (trace
// runs; elsewhere the lane pools are not reachable and st is zero).
func (sr *serveRun) coreMetrics(st core.Stats, n int64) {
	r, f := sr.res, float64(n)
	r.set("core.spawns_per_region", float64(st.Spawns)/f)
	r.set("core.private_join_share", ratio(float64(st.JoinsInlinedPrivate), float64(st.Joins())))
	r.set("core.steals_per_region", float64(st.Steals)/f)
	r.set("core.steal_success_ratio", ratio(float64(st.Steals), float64(st.StealAttempts)))
	r.set("core.leap_steals_per_region", float64(st.LeapSteals)/f)
	r.set("core.publications_per_region", float64(st.Publications)/f)
	r.set("core.privatizations_per_region", float64(st.Privatizations)/f)
	r.set("core.backoffs_per_region", float64(st.Backoffs)/f)
	r.set("core.parks_per_region", float64(st.Parks)/f)
	r.set("core.wakes_per_region", float64(st.Wakes)/f)
}

// laneStats sums the core counters of the server's lane pools.
func (sr *serveRun) laneStats() core.Stats {
	if sr.lanes == nil {
		return core.Stats{}
	}
	return sr.lanes.stats()
}

// laneRecorder is a registry backend that builds the wool backend's
// own pools and keeps a handle on each, so a trace run can read the
// lanes' core counters. The pools it returns are unchanged wool pools:
// the request path is the default one.
type laneRecorder struct {
	sched.Scheduler
	name  string
	mu    sync.Mutex
	pools []sched.Pool
}

var recorder = sync.OnceValue(func() *laneRecorder {
	wool, _ := sched.Lookup("wool")
	l := &laneRecorder{Scheduler: wool, name: "perfbench-wool"}
	sched.Register(l)
	return l
})

// recordLanes returns the recording backend with its pool list reset.
func recordLanes() *laneRecorder {
	l := recorder()
	l.mu.Lock()
	l.pools = nil
	l.mu.Unlock()
	return l
}

func (l *laneRecorder) Name() string { return l.name }

func (l *laneRecorder) NewPool(o sched.Options) sched.Pool {
	p := l.Scheduler.NewPool(o)
	l.mu.Lock()
	l.pools = append(l.pools, p)
	l.mu.Unlock()
	return p
}

// stats sums the recorded pools' counters; call between requests.
func (l *laneRecorder) stats() core.Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum core.Stats
	for _, p := range l.pools {
		if cp, ok := p.Native().(*core.Pool); ok {
			sum = statsAdd(sum, cp.Stats())
		}
	}
	return sum
}
