package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gowool/internal/poolerr"
)

// spinUntilAborted builds a root that spawns/joins forever: each
// iteration is one public spawn + call + join, so the only way out is
// the abort token observed at a generic join. Returns the task so the
// test keeps it alive.
func spinUntilAborted(p *Pool) func(*Worker) int64 {
	leaf := Define1("abort-leaf", func(w *Worker, x int64) int64 { return x })
	return func(w *Worker) int64 {
		var acc int64
		for {
			leaf.Spawn(w, 1)
			acc += leaf.Call(w, 2)
			acc += leaf.Join(w)
		}
	}
}

// TestAbortUnwindsRun: Abort from another goroutine must unwind an
// in-flight Run with the *poolerr.AbortError carrying the reason, and
// Reset must then return the pool to service.
func TestAbortUnwindsRun(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 2})
	defer p.Close()

	reason := errors.New("request deadline exceeded")
	go func() {
		time.Sleep(5 * time.Millisecond)
		p.Abort(reason)
	}()
	r := mustPanic(t, "aborted Run", func() {
		p.Run(spinUntilAborted(p))
	})
	ae, ok := r.(*poolerr.AbortError)
	if !ok {
		t.Fatalf("aborted Run panicked with %T (%v), want *poolerr.AbortError", r, r)
	}
	if !errors.Is(ae, reason) {
		t.Fatalf("AbortError unwraps to %v, want %v", ae.Reason, reason)
	}
	if _, poisoned := p.Poisoned(); !poisoned {
		t.Fatal("pool not poisoned after Abort unwound the Run")
	}
	if err := p.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if _, poisoned := p.Poisoned(); poisoned {
		t.Fatal("pool still poisoned after Reset")
	}

	fib := fibDef()
	got := p.Run(func(w *Worker) int64 { return fib.Call(w, 20) })
	if want := serialFib(20); got != want {
		t.Fatalf("post-Reset fib(20) = %d, want %d", got, want)
	}
}

// TestPoisonTripsEveryWire pins the abort's delivery route to the
// private fast path: poisoning stores morePublic on every worker (the
// generated private spawn declines while it is set, so the next spawn
// reaches publishMore and re-raises), only the first cause trips, and
// Reset clears the wires again.
func TestPoisonTripsEveryWire(t *testing.T) {
	p := NewPool(Options{Workers: 3, PrivateTasks: true})
	defer p.Close()
	if !p.Abort(errors.New("first")) {
		t.Fatal("Abort on a healthy pool returned false")
	}
	for _, w := range p.workers {
		if !w.morePublic.Load() {
			t.Errorf("worker %d: wire not tripped by Abort", w.idx)
		}
		w.morePublic.Store(false)
	}
	if p.Abort(errors.New("second")) {
		t.Fatal("second Abort on a poisoned pool returned true")
	}
	for _, w := range p.workers {
		if w.morePublic.Load() {
			t.Errorf("worker %d: wire tripped by an Abort that lost to the first cause", w.idx)
		}
	}
	if err := p.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	for _, w := range p.workers {
		if w.morePublic.Load() {
			t.Errorf("worker %d: wire still tripped after Reset", w.idx)
		}
	}
}

// TestStolenTaskPanicKeepsWireTripped covers a leapfrogging join whose
// stolen task meets the abort at a spawn: publishMore clears the wire
// and re-raises, and runStolen contains the panic. The worker must
// leave with its wire tripped again, so the join's own tree re-raises
// at its next spawn instead of running on along the private fast path.
func TestStolenTaskPanicKeepsWireTripped(t *testing.T) {
	p := NewPool(Options{Workers: 1, PrivateTasks: true})
	defer p.Close()
	reason := errors.New("cancelled mid-leapfrog")
	leaf := Define1("leaf", func(w *Worker, x int64) int64 { return x })
	r := mustPanic(t, "aborted Run", func() {
		p.Run(func(w *Worker) int64 {
			stolen := &Task{fn: func(w *Worker, _ *Task) {
				p.Abort(reason)
				leaf.Spawn(w, 1) // publishMore re-raises here
				t.Error("spawn after Abort did not re-raise")
			}}
			w.runStolen(stolen, true)
			if !w.morePublic.Load() {
				t.Error("wire clear after runStolen contained the abort")
			}
			leaf.Spawn(w, 2)
			t.Error("owner spawn after the contained abort did not re-raise")
			return leaf.Join(w)
		})
	})
	if ae, ok := r.(*poolerr.AbortError); !ok || !errors.Is(ae, reason) {
		t.Fatalf("Run raised %T (%v), want the *poolerr.AbortError", r, r)
	}
	if err := p.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
}

// TestRunRaisesPoisonOverUnjoined: a poisoned tree may return with
// descriptors left on worker 0's stack (a stolen task that the poison
// unwound on a leapfrogging join). Run must raise the first cause, not
// the unjoined-tasks diagnostic.
func TestRunRaisesPoisonOverUnjoined(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	reason := errors.New("cancelled")
	leaf := Define1("leaf", func(w *Worker, x int64) int64 { return x })
	r := mustPanic(t, "aborted Run", func() {
		p.Run(func(w *Worker) int64 {
			leaf.Spawn(w, 1)
			p.Abort(reason)
			return 0 // the spawned leaf is never joined
		})
	})
	if ae, ok := r.(*poolerr.AbortError); !ok || !errors.Is(ae, reason) {
		t.Fatalf("Run raised %T (%v), want the *poolerr.AbortError", r, r)
	}
	if err := p.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
}

// TestResetRevivesPanickedPool: a genuine task panic poisons the pool;
// Reset must discard the abandoned tree and revive it, repeatedly.
func TestResetRevivesPanickedPool(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4})
	defer p.Close()

	var boom *TaskDef1
	boom = Define1("reset-boom", func(w *Worker, depth int64) int64 {
		if depth == 0 {
			panic("reset boom")
		}
		boom.Spawn(w, depth-1)
		boom.Call(w, depth-1)
		boom.Join(w)
		return 0
	})
	fib := fibDef()
	want := serialFib(18)
	for round := 0; round < 3; round++ {
		r := mustPanic(t, "panicking Run", func() {
			p.Run(func(w *Worker) int64 { return boom.Call(w, 8) })
		})
		if fmt.Sprint(r) != "reset boom" {
			t.Fatalf("round %d: Run re-raised %v, want reset boom", round, r)
		}
		if cause, poisoned := p.Poisoned(); !poisoned || fmt.Sprint(cause) != "reset boom" {
			t.Fatalf("round %d: Poisoned() = %v, %v", round, cause, poisoned)
		}
		if err := p.Reset(); err != nil {
			t.Fatalf("round %d: Reset: %v", round, err)
		}
		if got := p.Run(func(w *Worker) int64 { return fib.Call(w, 18) }); got != want {
			t.Fatalf("round %d: post-Reset fib(18) = %d, want %d", round, got, want)
		}
	}
}

// TestResetNotPoisonedIsNoop: Reset on a healthy pool returns nil and
// leaves it usable.
func TestResetNotPoisonedIsNoop(t *testing.T) {
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	if err := p.Reset(); err != nil {
		t.Fatalf("Reset on healthy pool: %v", err)
	}
	fib := fibDef()
	if got, want := p.Run(func(w *Worker) int64 { return fib.Call(w, 15) }), serialFib(15); got != want {
		t.Fatalf("fib(15) = %d, want %d", got, want)
	}
}

// TestPoisonedConcurrentWithReset reads Poisoned from another goroutine
// while Abort and Reset cycle the poison on a pool (a serving layer's
// Stats reader against its lane). Under -race it pins that the cause
// read is synchronized with Reset's clear; in any mode a poisoned
// report must carry its cause.
func TestPoisonedConcurrentWithReset(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	stop := make(chan struct{})
	reads := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				reads <- nil
				return
			default:
			}
			if cause, poisoned := p.Poisoned(); poisoned != (cause != nil) {
				reads <- fmt.Errorf("Poisoned() = (%v, %v): poison without a cause", cause, poisoned)
				return
			}
			runtime.Gosched()
		}
	}()
	reason := errors.New("cycle")
	for i := 0; i < 2000; i++ {
		p.Abort(reason)
		// Yield so the reader runs inside the poisoned window even on
		// a single CPU. A yield is no synchronization: the reader's
		// cause read stays unordered with the Reset below unless
		// Poisoned takes the lock.
		runtime.Gosched()
		if err := p.Reset(); err != nil {
			t.Fatalf("cycle %d: Reset: %v", i, err)
		}
	}
	close(stop)
	if err := <-reads; err != nil {
		t.Fatal(err)
	}
}

// TestClosePoisonedPoolWithParking is the satellite regression for the
// poison→park leak: with Parking enabled, a pool poisoned by a task
// panic has its idle workers blocked on the poison gate (or parked on
// the idle engine); Close must release all of them and return. Run
// under -race in CI.
func TestClosePoisonedPoolWithParking(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4, Parking: ParkOn, MaxIdleSleep: 50 * time.Microsecond})

	var boom *TaskDef1
	boom = Define1("park-boom", func(w *Worker, depth int64) int64 {
		if depth == 0 {
			panic("park boom")
		}
		boom.Spawn(w, depth-1)
		boom.Call(w, depth-1)
		boom.Join(w)
		return 0
	})
	mustPanic(t, "poisoning Run", func() {
		p.Run(func(w *Worker) int64 { return boom.Call(w, 10) })
	})

	// Give the idle workers time to reach the poison gate (or the idle
	// engine's park), so Close exercises the release of both.
	time.Sleep(20 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on a poisoned pool with Parking enabled (poison→park leak)")
	}
}

// TestConcurrentRunTypedError: the concurrent-Run guard must panic
// with the shared sentinel so callers can recognize it across
// backends.
func TestConcurrentRunTypedError(t *testing.T) {
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	inFirst := make(chan struct{})
	release := make(chan struct{})
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		p.Run(func(w *Worker) int64 {
			close(inFirst)
			<-release
			return 0
		})
	}()
	<-inFirst
	r := mustPanic(t, "second Run", func() {
		p.Run(func(w *Worker) int64 { return 0 })
	})
	close(release)
	<-firstDone
	err, ok := r.(error)
	if !ok || !errors.Is(err, poolerr.ErrConcurrentRun) {
		t.Fatalf("second Run panicked with %T (%v), want an error wrapping poolerr.ErrConcurrentRun", r, r)
	}
}
