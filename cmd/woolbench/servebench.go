package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gowool/internal/resilience"
	"gowool/internal/sched"
	"gowool/internal/serve"
	"gowool/internal/workloads/fibw"
	"gowool/internal/workloads/stress"
)

// The serving benchmark (woolbench -serve FILE) measures woolserve,
// the concurrent request-serving layer (internal/serve, DESIGN.md
// §16): closed-loop clients drive a request stream through a server on
// the wool and woolgen backends, and the report carries throughput
// (req/s) and the submit-to-finish latency percentiles per cell. The
// mixed cell adds short-deadline requests, so the abort/Reset
// cancellation path runs inside the measured stream rather than only
// in tests. Two resilience cells (DESIGN.md §17) measure the
// self-healing layer itself: overload-2x drives an open-loop stream at
// twice the measured capacity into a small queue and reports the shed
// rate, and breaker-recovery trips a tenant's circuit breaker and
// reports how long the server takes to let healthy traffic back in.

// serveCell is one backend × workload stream measurement.
type serveCell struct {
	labels
	Clients   int
	Requests  int
	Completed int
	Cancelled int
	// ReqPerS is completed+cancelled requests over the stream's
	// wall-clock (a cancelled request still occupies its lane until
	// the abort unwinds, so it belongs in the service rate).
	ReqPerS float64
	// Latency percentiles over the COMPLETED requests' submit-to-
	// finish time (queueing included — this is a serving benchmark).
	LatP50Us, LatP90Us, LatP99Us float64
	// Resilience-cell fields (overload-2x, breaker-recovery); zero and
	// not recorded on the throughput cells.
	//
	// Rejected counts submissions shed by admission control; ShedRate
	// is Rejected over all submission attempts (overload-2x).
	Rejected int
	ShedRate float64
	// RecoveryMs is breaker-recovery's headline: the time from the
	// circuit opening to the first healthy completion flowing again
	// (≈ the breaker cooldown plus the half-open probe's service time).
	RecoveryMs float64
}

func (c serveCell) records() []record {
	recs := []record{
		{Key: "clients", Unit: "count", Value: float64(c.Clients)},
		{Key: "requests", Unit: "count", Value: float64(c.Requests)},
		{Key: "completed", Unit: "count", Value: float64(c.Completed)},
		{Key: "cancelled", Unit: "count", Value: float64(c.Cancelled)},
		{Key: "req_per_s", Unit: "1/s", Value: c.ReqPerS},
		{Key: "lat_p50_us", Unit: "us", Value: c.LatP50Us},
		{Key: "lat_p90_us", Unit: "us", Value: c.LatP90Us},
		{Key: "lat_p99_us", Unit: "us", Value: c.LatP99Us},
	}
	for _, r := range []record{
		{Key: "rejected", Unit: "count", Value: float64(c.Rejected)},
		{Key: "shed_rate", Unit: "ratio", Value: c.ShedRate},
		{Key: "recovery_ms", Unit: "ms", Value: c.RecoveryMs},
	} {
		if r.Value != 0 {
			recs = append(recs, r)
		}
	}
	for i := range recs {
		recs[i].Labels = c.labels
	}
	return recs
}

// serveWorkload describes one request stream shape.
type serveWorkload struct {
	name string
	// job returns the i-th request's job and, when the request should
	// carry a deadline, a positive timeout.
	job func(i int) (serve.Job, time.Duration)
}

// serveSpinJob is the mixed stream's slow request: a small task tree
// whose leaves busy-spin, so a 1-2ms deadline can land mid-flight
// (same probe shape as the serve torture suite). Completed value is
// the leaf count.
func serveSpinJob(depth int64, spin time.Duration) serve.Job {
	return serve.Rec(sched.RecJob{
		Name: "spin",
		Root: depth,
		Leaf: func(n int64) (int64, bool) {
			if n > 0 {
				return 0, false
			}
			end := time.Now().Add(spin)
			for time.Now().Before(end) {
			}
			return 1, true
		},
		Split: func(n int64) (inline, spawned int64) { return n - 1, n - 1 },
	})
}

func runServeBench(path string, full bool) error {
	const (
		workers   = 4
		laneWidth = 1
		clients   = 4
	)
	requests := 400
	scale := "quick"
	if full {
		requests = 4000
		scale = "full"
	}
	e, restore := benchEnv(workers, scale)
	defer restore()
	rep := &report{
		Env: e,
		Records: []record{
			{Key: "workers", Unit: "count", Value: workers},
			{Key: "lane_width", Unit: "count", Value: laneWidth},
		},
		Notes: map[string]string{
			"setup":    fmt.Sprintf("%d closed-loop clients over a %d-worker server (lane width %d); latency percentiles over completed requests, submit to finish", clients, workers, laneWidth),
			"mixed":    "the mixed cell gives 1 in 4 requests a 1-2ms deadline over a slow spinning job, so mid-flight aborts and pool Resets happen inside the measured stream",
			"intent":   "throughput and tail latency of the serving layer per backend; req_per_s counts completed+cancelled (a cancelled request occupies its lane until the abort unwinds)",
			"overload": "overload-2x submits open-loop at 2x the fib16 cell's measured rate into an 8-deep queue; shed_rate is the fraction rejected with ErrOverloaded — admission control sheds instead of queueing without bound, and req_per_s shows the completions the server still sustained",
			"breaker":  "breaker-recovery panics every request until the tenant's circuit opens (submissions shed with ErrCircuitOpen), then streams healthy requests; recovery_ms is open-to-first-healthy-completion, dominated by the 100ms cooldown before the half-open probe",
		},
	}

	workloads := []serveWorkload{
		{name: "fib16", job: func(i int) (serve.Job, time.Duration) {
			return serve.Rec(fibw.Job(16, 1)), 0
		}},
		{name: "stress", job: func(i int) (serve.Job, time.Duration) {
			return serve.Rec(stress.Job(6, 100, 1)), 0
		}},
		{name: "mixed-cancel", job: func(i int) (serve.Job, time.Duration) {
			if i%4 == 0 {
				return serveSpinJob(4, 200*time.Microsecond), time.Duration(1+i%2) * time.Millisecond
			}
			return serve.Rec(fibw.Job(16, 1)), 0
		}},
	}

	for _, backend := range []string{"wool", "woolgen"} {
		// capacity is the fib16 cell's closed-loop service rate; the
		// overload cell submits at twice it.
		var capacity float64
		for _, wl := range workloads {
			cell, err := runServeCell(backend, wl, workers, laneWidth, clients, requests)
			if err != nil {
				return err
			}
			if wl.name == "fib16" {
				capacity = cell.ReqPerS
			}
			if wl.name == "mixed-cancel" && cell.Cancelled == 0 {
				return fmt.Errorf("%s/mixed-cancel: no request was cancelled mid-flight", backend)
			}
			rep.Records = append(rep.Records, cell.records()...)
			fmt.Printf("  %-8s %-16s %8.0f req/s  p50=%-8.1fus p90=%-8.1fus p99=%-8.1fus completed=%d cancelled=%d\n",
				cell.Backend, cell.Workload, cell.ReqPerS, cell.LatP50Us, cell.LatP90Us, cell.LatP99Us,
				cell.Completed, cell.Cancelled)
		}
		oc, err := runOverloadCell(backend, capacity, workers, laneWidth, requests)
		if err != nil {
			return err
		}
		rep.Records = append(rep.Records, oc.records()...)
		fmt.Printf("  %-8s %-16s %8.0f req/s  p50=%-8.1fus p99=%-8.1fus shed_rate=%.2f rejected=%d\n",
			oc.Backend, oc.Workload, oc.ReqPerS, oc.LatP50Us, oc.LatP99Us, oc.ShedRate, oc.Rejected)
		bc, err := runBreakerCell(backend, workers, laneWidth)
		if err != nil {
			return err
		}
		rep.Records = append(rep.Records, bc.records()...)
		fmt.Printf("  %-8s %-16s recovery=%.1fms rejected=%d (circuit open)\n",
			bc.Backend, bc.Workload, bc.RecoveryMs, bc.Rejected)
	}
	return writeReport(path, rep)
}

// runServeCell drives one request stream and aggregates its outcomes.
func runServeCell(backend string, wl serveWorkload, workers, laneWidth, clients, requests int) (serveCell, error) {
	cell := serveCell{
		labels:  labels{Backend: backend, Workload: wl.name},
		Clients: clients, Requests: requests,
	}
	s, err := serve.New(serve.Options{
		Backend:   backend,
		Workers:   workers,
		LaneWidth: laneWidth,
		// The mixed cell's short-deadline requests exist to land
		// mid-flight; with deadline admission on, the estimator would
		// learn the spin time and shed them at Submit instead.
		Resilience: resilience.Options{DisableDeadline: true},
	})
	if err != nil {
		return cell, err
	}
	defer s.Close()

	type clientOut struct {
		lats                 []time.Duration
		completed, cancelled int
		err                  error
	}
	results := make(chan clientOut, clients)
	perClient := requests / clients
	start := time.Now()
	for c := 0; c < clients; c++ {
		c := c
		go func() {
			var out clientOut
			defer func() { results <- out }()
			for i := 0; i < perClient; i++ {
				job, timeout := wl.job(c*perClient + i)
				ctx := context.Background()
				var cancel context.CancelFunc
				if timeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, timeout)
				}
				tk, err := s.Submit(ctx, "", job)
				if err != nil {
					if cancel != nil {
						cancel()
					}
					out.err = fmt.Errorf("%s/%s: submit: %w", backend, wl.name, err)
					return
				}
				_, werr := tk.Wait()
				if cancel != nil {
					cancel()
				}
				switch {
				case werr == nil:
					out.lats = append(out.lats, tk.Latency())
					out.completed++
				case errors.Is(werr, context.DeadlineExceeded) || errors.Is(werr, context.Canceled):
					out.cancelled++
				default:
					out.err = fmt.Errorf("%s/%s: request failed: %w", backend, wl.name, werr)
					return
				}
			}
		}()
	}
	var lats []time.Duration
	for c := 0; c < clients; c++ {
		out := <-results
		if out.err != nil {
			return cell, out.err
		}
		lats = append(lats, out.lats...)
		cell.Completed += out.completed
		cell.Cancelled += out.cancelled
	}
	elapsed := time.Since(start)
	cell.ReqPerS = float64(cell.Completed+cell.Cancelled) / elapsed.Seconds()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	cell.LatP50Us = pctUs(lats, 50)
	cell.LatP90Us = pctUs(lats, 90)
	cell.LatP99Us = pctUs(lats, 99)
	return cell, nil
}

// runOverloadCell drives an open-loop fib16 stream at twice the
// closed-loop capacity measured by the fib16 cell, into a server with
// an 8-deep queue. Admission control must shed the excess: the cell
// reports the shed rate, the completions the server still sustained,
// and the latency percentiles of those completions.
func runOverloadCell(backend string, capacity float64, workers, laneWidth, requests int) (serveCell, error) {
	cell := serveCell{
		labels:  labels{Backend: backend, Workload: "overload-2x"},
		Clients: 1, Requests: requests,
	}
	if capacity <= 0 {
		return cell, fmt.Errorf("%s/overload-2x: no measured fib16 capacity to scale from", backend)
	}
	s, err := serve.New(serve.Options{
		Backend:    backend,
		Workers:    workers,
		LaneWidth:  laneWidth,
		MaxPending: 8,
		Resilience: resilience.Options{DisableDeadline: true},
	})
	if err != nil {
		return cell, err
	}
	defer s.Close()

	interval := time.Duration(float64(time.Second) / (2 * capacity))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		lats []time.Duration
		werr error
	)
	start := time.Now()
	next := start
	for i := 0; i < requests; i++ {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(interval)
		tk, err := s.Submit(context.Background(), "", serve.Rec(fibw.Job(16, 1)))
		if err != nil {
			if errors.Is(err, serve.ErrOverloaded) {
				cell.Rejected++
				continue
			}
			return cell, fmt.Errorf("%s/overload-2x: submit: %w", backend, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := tk.Wait()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				werr = err
				return
			}
			lats = append(lats, tk.Latency())
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if werr != nil {
		return cell, fmt.Errorf("%s/overload-2x: request failed: %w", backend, werr)
	}
	cell.Completed = len(lats)
	cell.ShedRate = float64(cell.Rejected) / float64(requests)
	cell.ReqPerS = float64(cell.Completed) / elapsed.Seconds()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	cell.LatP50Us = pctUs(lats, 50)
	cell.LatP90Us = pctUs(lats, 90)
	cell.LatP99Us = pctUs(lats, 99)
	return cell, nil
}

// serveBoomJob is breaker-recovery's failing request: every leaf
// panics, so the request fails as a *serve.PanicError and feeds the
// tenant's circuit breaker.
func serveBoomJob() serve.Job {
	return serve.Rec(sched.RecJob{
		Name: "boom",
		Root: 2,
		Leaf: func(n int64) (int64, bool) {
			if n > 0 {
				return 0, false
			}
			panic("breaker-recovery bench failure")
		},
		Split: func(n int64) (inline, spawned int64) { return n - 1, n - 1 },
	})
}

// runBreakerCell trips the anonymous tenant's circuit breaker with
// panicking requests, then streams healthy fib16 requests and measures
// the recovery time: circuit open to the first healthy completion
// (the cooldown, plus the half-open probe's own service time).
func runBreakerCell(backend string, workers, laneWidth int) (serveCell, error) {
	cell := serveCell{
		labels:  labels{Backend: backend, Workload: "breaker-recovery"},
		Clients: 1,
	}
	const cooldown = 100 * time.Millisecond
	s, err := serve.New(serve.Options{
		Backend:   backend,
		Workers:   workers,
		LaneWidth: laneWidth,
		Resilience: resilience.Options{
			DisableDeadline: true,
			Breaker: resilience.BreakerConfig{
				MinSamples: 4, FailureRate: 0.5,
				Cooldown: cooldown, HalfOpenProbes: 1,
			},
		},
	})
	if err != nil {
		return cell, err
	}
	defer s.Close()

	// Phase 1: fail requests until admission sheds with ErrCircuitOpen.
	var opened time.Time
	var perr *serve.PanicError
	for i := 0; ; i++ {
		cell.Requests++
		tk, err := s.Submit(context.Background(), "", serveBoomJob())
		if errors.Is(err, serve.ErrCircuitOpen) {
			cell.Rejected++
			opened = time.Now()
			break
		}
		if err != nil {
			return cell, fmt.Errorf("%s/breaker-recovery: submit: %w", backend, err)
		}
		if _, werr := tk.Wait(); !errors.As(werr, &perr) {
			return cell, fmt.Errorf("%s/breaker-recovery: boom request returned %v, want a panic error", backend, werr)
		}
		if i > 1000 {
			return cell, fmt.Errorf("%s/breaker-recovery: breaker never opened", backend)
		}
	}

	// Phase 2: healthy requests; the first completion marks recovery
	// (the breaker half-opens after its cooldown, the success closes it).
	want := fibw.Serial(16)
	for {
		tk, err := s.Submit(context.Background(), "", serve.Rec(fibw.Job(16, 1)))
		if errors.Is(err, serve.ErrCircuitOpen) {
			cell.Rejected++
			time.Sleep(cooldown / 20)
			continue
		}
		if err != nil {
			return cell, fmt.Errorf("%s/breaker-recovery: submit: %w", backend, err)
		}
		cell.Requests++
		v, werr := tk.Wait()
		if werr != nil || v != want {
			return cell, fmt.Errorf("%s/breaker-recovery: healthy request got %d, %v", backend, v, werr)
		}
		cell.Completed++
		cell.RecoveryMs = float64(time.Since(opened)) / float64(time.Millisecond)
		break
	}
	return cell, nil
}

// pctUs reads the p-th percentile of sorted latencies in microseconds.
func pctUs(sorted []time.Duration, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted) - 1) * p / 100
	return float64(sorted[idx]) / float64(time.Microsecond)
}
