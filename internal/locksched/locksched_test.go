package locksched

import (
	"runtime"
	"testing"
	"testing/quick"
)

func serialFib(n int64) int64 {
	if n < 2 {
		return n
	}
	return serialFib(n-1) + serialFib(n-2)
}

func fibDef() *TaskDef1 {
	var fib *TaskDef1
	fib = Define1("fib", func(w *Worker, n int64) int64 {
		if n < 2 {
			return n
		}
		fib.Spawn(w, n-2)
		a := fib.Call(w, n-1)
		b := fib.Join(w)
		return a + b
	})
	return fib
}

func TestFibAllStrategies(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, strat := range []StealStrategy{StealBase, StealPeek, StealTryLock} {
		for _, workers := range []int{1, 2, 4} {
			p := NewPool(Options{Workers: workers, Strategy: strat})
			got := p.Run(func(w *Worker) int64 { return fibDef().Call(w, 20) })
			if want := serialFib(20); got != want {
				t.Errorf("%v workers=%d: got %d want %d", strat, workers, got, want)
			}
			p.Close()
		}
	}
}

func TestStrategyNames(t *testing.T) {
	names := map[StealStrategy]string{
		StealBase:    "base",
		StealPeek:    "peek",
		StealTryLock: "trylock",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(s), got, want)
		}
	}
	if got := StealStrategy(99).String(); got != "StealStrategy(99)" {
		t.Errorf("unknown strategy String = %q", got)
	}
}

func TestStatsConservation(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4, Strategy: StealPeek})
	defer p.Close()
	fib := fibDef()
	p.Run(func(w *Worker) int64 { return fib.Call(w, 21) })
	st := p.Stats()
	if st.Spawns != st.JoinsInlined+st.JoinsStolen {
		t.Errorf("spawns (%d) != joins (%d+%d)", st.Spawns, st.JoinsInlined, st.JoinsStolen)
	}
	if st.JoinsStolen != st.Steals {
		t.Errorf("stolen joins (%d) != steals (%d)", st.JoinsStolen, st.Steals)
	}
}

func TestContextTask(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	type arr struct{ v []int64 }
	var sum *TaskDefC3[arr]
	sum = DefineC3("sum", func(w *Worker, a *arr, lo, hi, _ int64) int64 {
		if hi-lo <= 8 {
			var s int64
			for i := lo; i < hi; i++ {
				s += a.v[i]
			}
			return s
		}
		mid := (lo + hi) / 2
		sum.Spawn(w, a, lo, mid, 0)
		r := sum.Call(w, a, mid, hi, 0)
		l := sum.Join(w)
		return l + r
	})
	a := &arr{v: make([]int64, 500)}
	var want int64
	for i := range a.v {
		a.v[i] = int64(i)
		want += int64(i)
	}
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	if got := p.Run(func(w *Worker) int64 { return sum.Call(w, a, 0, 500, 0) }); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestQuickEquivalence(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	fib := fibDef()
	err := quick.Check(func(nRaw, wRaw, sRaw uint8) bool {
		n := int64(nRaw % 16)
		workers := int(wRaw%4) + 1
		strat := StealStrategy(sRaw % 3)
		p := NewPool(Options{Workers: workers, Strategy: strat})
		defer p.Close()
		got := p.Run(func(w *Worker) int64 { return fib.Call(w, n) })
		return got == serialFib(n)
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func TestUnjoinedPanics(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unjoined tasks")
		}
	}()
	p.Run(func(w *Worker) int64 { noop.Spawn(w, 1); return 0 })
}

func BenchmarkSpawnJoinLocked(b *testing.B) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	noop := Define1("noop", func(w *Worker, x int64) int64 { return x })
	b.ResetTimer()
	p.Run(func(w *Worker) int64 {
		for i := 0; i < b.N; i++ {
			noop.Spawn(w, 1)
			noop.Join(w)
		}
		return 0
	})
}

// TestWorkersBoundRejected: stolenBy packs thief index + 1 into an
// int32, so NewPool must reject worker counts past that encoding
// before allocating per-worker stacks.
func TestWorkersBoundRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool accepted Workers beyond the int32 stolenBy encoding")
		}
	}()
	NewPool(Options{Workers: 1 << 31})
}
