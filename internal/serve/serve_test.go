package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gowool/internal/sched"
	"gowool/internal/workloads/fibw"
)

// gateJob is the cancellation probe: a recursion whose inline branch
// spins on g at every level, so a request stays mid-flight until the
// test opens the gate and then unwinds through a long ladder of joins
// (each one an abort observation point). started, when non-nil, is set
// the moment the request is provably running on a lane — tests wait on
// it before cancelling so a cancellation is mid-flight, not
// while-queued. Completed value is depth+1.
func gateJob(g, started *atomic.Bool, depth int64) Job {
	return Rec(sched.RecJob{
		Name: "gate",
		Root: depth,
		Leaf: func(n int64) (int64, bool) {
			if n < 0 {
				if started != nil {
					started.Store(true)
				}
				for !g.Load() {
					runtime.Gosched()
				}
				return 1, true
			}
			if n == 0 {
				return 1, true
			}
			return 0, false
		},
		Split: func(n int64) (inline, spawned int64) { return -1, n - 1 },
	})
}

// waitTrue polls an atomic flag (a gate job's started signal).
func waitTrue(t *testing.T, f *atomic.Bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !f.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitLanePoisoned polls Server.Stats until one lane pool reports
// poisoned — the observable moment a context cancellation's abort has
// landed.
func waitLanePoisoned(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, ls := range s.Stats().Lanes {
			if ls.Poisoned {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no lane pool became poisoned after cancellation")
}

// TestServeBasic submits a burst of concurrent fib requests through
// the default (single anonymous tenant) server and checks every
// result against the serial reference.
func TestServeBasic(t *testing.T) {
	s, err := New(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const reqs = 32
	want := fibw.Serial(16)
	var wg sync.WaitGroup
	errs := make(chan error, reqs)
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := s.Submit(context.Background(), "", Rec(fibw.Job(16, 1)))
			if err != nil {
				errs <- err
				return
			}
			v, err := tk.Wait()
			if err != nil {
				errs <- err
				return
			}
			if v != want {
				errs <- fmt.Errorf("fib(16) = %d, want %d", v, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if got := st.Tenants[0].Completed; got != reqs {
		t.Errorf("completed = %d, want %d", got, reqs)
	}
}

// TestServeBackends smoke-tests the serving layer over every
// registered scheduler: the lanes must serialize Run calls correctly
// (never tripping the concurrent-Run guard) on all of them.
func TestServeBackends(t *testing.T) {
	want := fibw.Serial(14)
	for _, sc := range sched.All() {
		t.Run(sc.Name(), func(t *testing.T) {
			s, err := New(Options{Backend: sc.Name(), Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var tks []*Ticket
			for i := 0; i < 8; i++ {
				tk, err := s.Submit(context.Background(), "", Rec(fibw.Job(14, 1)))
				if err != nil {
					t.Fatal(err)
				}
				tks = append(tks, tk)
			}
			for _, tk := range tks {
				v, err := tk.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if v != want {
					t.Fatalf("fib(14) = %d, want %d", v, want)
				}
			}
		})
	}
}

// TestServeOverload fills a single-lane server's bounded queue and
// checks admission control sheds the excess with ErrOverloaded.
func TestServeOverload(t *testing.T) {
	s, err := New(Options{Workers: 1, MaxPending: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var gate, started atomic.Bool
	// First request occupies the lane (popped immediately), two more
	// fill the pending queue.
	var tks []*Ticket
	blocker, err := s.Submit(context.Background(), "", gateJob(&gate, &started, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the blocker is actually in flight so the queue bound
	// is deterministic.
	waitTrue(t, &started, "blocker dispatch")
	for i := 0; i < 2; i++ {
		tk, err := s.Submit(context.Background(), "", gateJob(&gate, nil, 4))
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	if _, err := s.Submit(context.Background(), "", gateJob(&gate, nil, 4)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit beyond MaxPending: err = %v, want ErrOverloaded", err)
	}
	gate.Store(true)
	if v, err := blocker.Wait(); err != nil || v != 5 {
		t.Fatalf("blocker: v=%d err=%v, want 5, nil", v, err)
	}
	for _, tk := range tks {
		if v, err := tk.Wait(); err != nil || v != 5 {
			t.Fatalf("queued: v=%d err=%v, want 5, nil", v, err)
		}
	}
	st := s.Stats()
	if st.Tenants[0].Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Tenants[0].Rejected)
	}
}

// TestServeTenantLanes checks the weighted lane apportionment (every
// tenant at least one lane, remainder by largest weight remainder)
// and the unknown-tenant rejection.
func TestServeTenantLanes(t *testing.T) {
	s, err := New(Options{
		Workers: 8,
		Tenants: []Tenant{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	if len(st.Lanes) != 8 {
		t.Fatalf("lanes = %d, want 8", len(st.Lanes))
	}
	byName := map[string]TenantStats{}
	for _, ts := range st.Tenants {
		byName[ts.Name] = ts
	}
	if byName["a"].Lanes != 6 || byName["b"].Lanes != 2 {
		t.Errorf("lane split a=%d b=%d, want 6/2", byName["a"].Lanes, byName["b"].Lanes)
	}
	if _, err := s.Submit(context.Background(), "ghost", Rec(fibw.Job(10, 1))); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant: err = %v, want ErrUnknownTenant", err)
	}
	// A tenant starving its own queue still gets served: submit to both.
	ta, _ := s.Submit(context.Background(), "a", Rec(fibw.Job(12, 1)))
	tb, _ := s.Submit(context.Background(), "b", Rec(fibw.Job(12, 1)))
	want := fibw.Serial(12)
	for _, tk := range []*Ticket{ta, tb} {
		if v, err := tk.Wait(); err != nil || v != want {
			t.Fatalf("v=%d err=%v, want %d, nil", v, err, want)
		}
	}
}

// TestServePanicIsolation checks one request's task panic surfaces as
// its own *PanicError and leaves the server healthy for the next
// request (pool Reset on wool/woolgen).
func TestServePanicIsolation(t *testing.T) {
	for _, backend := range []string{"wool", "woolgen"} {
		t.Run(backend, func(t *testing.T) {
			s, err := New(Options{Backend: backend, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			boom := Rec(sched.RecJob{
				Name: "boom",
				Root: 6,
				Leaf: func(n int64) (int64, bool) {
					if n <= 0 {
						panic("boom at the leaf")
					}
					return 0, false
				},
				Split: func(n int64) (inline, spawned int64) { return n - 1, n - 2 },
			})
			tk, err := s.Submit(context.Background(), "", boom)
			if err != nil {
				t.Fatal(err)
			}
			_, werr := tk.Wait()
			var pe *PanicError
			if !errors.As(werr, &pe) {
				t.Fatalf("panicking request: err = %v, want *PanicError", werr)
			}
			// The lane must have revived its pool: follow-up requests
			// complete normally.
			want := fibw.Serial(15)
			for i := 0; i < 4; i++ {
				tk, err := s.Submit(context.Background(), "", Rec(fibw.Job(15, 1)))
				if err != nil {
					t.Fatal(err)
				}
				if v, err := tk.Wait(); err != nil || v != want {
					t.Fatalf("post-panic fib(15): v=%d err=%v, want %d, nil", v, err, want)
				}
			}
			st := s.Stats()
			if st.Tenants[0].Failed != 1 {
				t.Errorf("failed = %d, want 1", st.Tenants[0].Failed)
			}
		})
	}
}

// TestServeCancelMidFlight is the acceptance check: a request whose
// context is cancelled mid-run unwinds with context.Canceled while
// concurrent sibling requests on other lanes complete untouched.
func TestServeCancelMidFlight(t *testing.T) {
	for _, backend := range []string{"wool", "woolgen"} {
		t.Run(backend, func(t *testing.T) {
			s, err := New(Options{Backend: backend, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			var gate, started atomic.Bool
			ctx, cancel := context.WithCancel(context.Background())
			victim, err := s.Submit(ctx, "", gateJob(&gate, &started, 256))
			if err != nil {
				t.Fatal(err)
			}
			waitTrue(t, &started, "victim dispatch")
			// Siblings on the other lanes keep completing while the
			// victim spins.
			want := fibw.Serial(15)
			var sibs []*Ticket
			for i := 0; i < 6; i++ {
				tk, err := s.Submit(context.Background(), "", Rec(fibw.Job(15, 1)))
				if err != nil {
					t.Fatal(err)
				}
				sibs = append(sibs, tk)
			}
			for _, tk := range sibs {
				if v, err := tk.Wait(); err != nil || v != want {
					t.Fatalf("sibling during spin: v=%d err=%v, want %d, nil", v, err, want)
				}
			}

			cancel()
			waitLanePoisoned(t, s)
			gate.Store(true)

			v, werr := victim.Wait()
			if !errors.Is(werr, context.Canceled) {
				t.Fatalf("cancelled request: v=%d err=%v, want context.Canceled", v, werr)
			}
			// Only its own request died: fresh requests on every lane
			// still complete.
			var after []*Ticket
			for i := 0; i < 8; i++ {
				tk, err := s.Submit(context.Background(), "", Rec(fibw.Job(15, 1)))
				if err != nil {
					t.Fatal(err)
				}
				after = append(after, tk)
			}
			for _, tk := range after {
				if v, err := tk.Wait(); err != nil || v != want {
					t.Fatalf("post-cancel sibling: v=%d err=%v, want %d, nil", v, err, want)
				}
			}
			st := s.Stats()
			if st.Tenants[0].Cancelled != 1 {
				t.Errorf("cancelled = %d, want 1", st.Tenants[0].Cancelled)
			}
		})
	}
}

// abortCheckPeriod mirrors internal/core's countdown of the same name:
// the most generic joins a worker performs between two loads of the
// poison flag. The abort-latency bound is stated in its units.
const abortCheckPeriod = 32

// TestServeCancelLatency: a default server's lanes run private tasks
// on the generated ports, and a cancellation still lands within
// abortCheckPeriod leaves per lane worker. A leaf of a fib(22) request
// cancels its own context mid-tree and waits until the lane's pool
// reports the poison (Poisoned takes the poison lock, so the wires are
// tripped by then); every leaf started after that is late.
func TestServeCancelLatency(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if b := s.Stats().Backend; b != "woolgen" {
		t.Fatalf("default backend = %q, want woolgen", b)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 22
	var started, late atomic.Int64
	var aborted atomic.Bool
	mid := fibw.Serial(n+1) / 2 // fib(n) has fib(n+1) leaves
	job := fibw.Job(n, 1)
	job.Leaf = func(k int64) (int64, bool) {
		if k >= 2 {
			return 0, false
		}
		if aborted.Load() {
			late.Add(1)
		}
		if started.Add(1) == mid {
			cancel()
			for !s.Stats().Lanes[0].Poisoned {
				runtime.Gosched()
			}
			aborted.Store(true)
		}
		return k, true
	}
	tk, err := s.Submit(ctx, "", Rec(job))
	if err != nil {
		t.Fatal(err)
	}
	if v, werr := tk.Wait(); !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled request: v=%d err=%v, want context.Canceled", v, werr)
	}
	if l, bound := late.Load(), int64(abortCheckPeriod); l > bound {
		t.Errorf("%d leaves started after the abort landed (%d started in all), bound %d", l, started.Load(), bound)
	}

	want := fibw.Serial(16)
	tk, err = s.Submit(context.Background(), "", Rec(fibw.Job(16, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tk.Wait(); err != nil || v != want {
		t.Fatalf("revived lane fib(16): v=%d err=%v, want %d, nil", v, err, want)
	}
	for _, l := range s.lanes {
		l.mu.Lock()
		st := l.pool.Stats()
		l.mu.Unlock()
		if st.Extra["joins_inlined_private"] == 0 {
			t.Errorf("lane %d: no private joins (%+v): lanes are not running private tasks", l.idx, st)
		}
	}
}

// TestServeCancelRevivesSingleLane pins the Reset path: with exactly
// one lane there is nowhere to hide a broken pool — the cancelled
// request's own pool must serve the follow-ups.
func TestServeCancelRevivesSingleLane(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for round := 0; round < 3; round++ {
		var gate, started atomic.Bool
		ctx, cancel := context.WithCancel(context.Background())
		victim, err := s.Submit(ctx, "", gateJob(&gate, &started, 256))
		if err != nil {
			t.Fatal(err)
		}
		waitTrue(t, &started, "victim dispatch")
		cancel()
		waitLanePoisoned(t, s)
		gate.Store(true)
		if _, werr := victim.Wait(); !errors.Is(werr, context.Canceled) {
			t.Fatalf("round %d: err = %v, want context.Canceled", round, werr)
		}
		want := fibw.Serial(16)
		tk, err := s.Submit(context.Background(), "", Rec(fibw.Job(16, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if v, err := tk.Wait(); err != nil || v != want {
			t.Fatalf("round %d: revived lane fib(16): v=%d err=%v, want %d, nil", round, v, err, want)
		}
	}
}

// TestServeStatsConcurrentWithReset reads Stats in a loop while a
// one-lane server's requests are cancelled mid-flight, so the lane's
// pool is poisoned and Reset under the reader. Under -race it pins that
// the lane snapshot's poison read is synchronized with Reset.
func TestServeStatsConcurrentWithReset(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Stats()
			}
		}
	}()
	defer func() {
		close(stop)
		reader.Wait()
	}()

	const rounds = 8
	for round := 0; round < rounds; round++ {
		var gate, started atomic.Bool
		ctx, cancel := context.WithCancel(context.Background())
		victim, err := s.Submit(ctx, "", gateJob(&gate, &started, 256))
		if err != nil {
			t.Fatal(err)
		}
		waitTrue(t, &started, "victim dispatch")
		cancel()
		waitLanePoisoned(t, s)
		gate.Store(true)
		if _, werr := victim.Wait(); !errors.Is(werr, context.Canceled) {
			t.Fatalf("round %d: err = %v, want context.Canceled", round, werr)
		}
	}
	mustWaitFib(t, s, "")
	st := s.Stats()
	if ls := st.Lanes[0]; ls.Poisoned || ls.State != "serving" || st.Tenants[0].Cancelled != rounds {
		t.Fatalf("after %d reset rounds: lane %+v, tenant %+v", rounds, ls, st.Tenants[0])
	}
}

// TestServeDeadline checks a request deadline behaves like an explicit
// cancellation: the request fails with context.DeadlineExceeded.
func TestServeDeadline(t *testing.T) {
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var gate, started atomic.Bool
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	tk, err := s.Submit(ctx, "", gateJob(&gate, &started, 64))
	if err != nil {
		t.Fatal(err)
	}
	waitTrue(t, &started, "request dispatch")
	waitLanePoisoned(t, s)
	gate.Store(true)
	if _, werr := tk.Wait(); !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", werr)
	}
}

// TestServeCancelWhileQueued checks a request cancelled before
// dispatch fails at dispatch without running.
func TestServeCancelWhileQueued(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var gate, started atomic.Bool
	blocker, err := s.Submit(context.Background(), "", gateJob(&gate, &started, 4))
	if err != nil {
		t.Fatal(err)
	}
	waitTrue(t, &started, "blocker dispatch")
	ctx, cancel := context.WithCancel(context.Background())
	queued, err := s.Submit(ctx, "", gateJob(&gate, nil, 4))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	gate.Store(true)
	if v, err := blocker.Wait(); err != nil || v != 5 {
		t.Fatalf("blocker: v=%d err=%v", v, err)
	}
	if _, werr := queued.Wait(); !errors.Is(werr, context.Canceled) {
		t.Fatalf("queued-cancelled: err = %v, want context.Canceled", werr)
	}
}

// TestServeClose checks Close fails the queued backlog with ErrClosed,
// lets the in-flight request finish, and rejects new submissions.
func TestServeClose(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var gate, started atomic.Bool
	blocker, err := s.Submit(context.Background(), "", gateJob(&gate, &started, 4))
	if err != nil {
		t.Fatal(err)
	}
	waitTrue(t, &started, "blocker dispatch")
	var queued []*Ticket
	for i := 0; i < 2; i++ {
		tk, err := s.Submit(context.Background(), "", gateJob(&gate, nil, 4))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, tk)
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.Close()
	}()
	for _, tk := range queued {
		if _, werr := tk.Wait(); !errors.Is(werr, ErrClosed) {
			t.Fatalf("drained ticket: err = %v, want ErrClosed", werr)
		}
	}
	gate.Store(true)
	if v, err := blocker.Wait(); err != nil || v != 5 {
		t.Fatalf("in-flight at Close: v=%d err=%v, want 5, nil", v, err)
	}
	<-closed
	if _, err := s.Submit(context.Background(), "", gateJob(&gate, nil, 4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: err = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestApportionLanes pins the largest-remainder team sizing.
func TestApportionLanes(t *testing.T) {
	mk := func(ws ...int) []*tenant {
		out := make([]*tenant, len(ws))
		for i, w := range ws {
			out[i] = &tenant{weight: w}
		}
		return out
	}
	cases := []struct {
		weights []int
		total   int
		want    []int
	}{
		{[]int{1}, 4, []int{4}},
		{[]int{3, 1}, 8, []int{6, 2}},
		{[]int{1, 1, 1}, 2, []int{1, 1, 1}}, // floor: one lane each
		{[]int{5, 3, 2}, 10, []int{5, 3, 2}},
		{[]int{2, 1}, 4, []int{2, 2}}, // remainder favours b's larger fraction
	}
	for _, c := range cases {
		got := apportionLanes(mk(c.weights...), c.total)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("apportion(%v, %d) = %v, want %v", c.weights, c.total, got, c.want)
				break
			}
		}
	}
}
