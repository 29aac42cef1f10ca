package ompstyle

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func serialFib(n int64) int64 {
	if n < 2 {
		return n
	}
	return serialFib(n-1) + serialFib(n-2)
}

// ompFib is fib with OpenMP-style tasks: spawn one child task, compute
// the other branch inline, taskwait, combine.
func ompFib(tc *Context, n int64) int64 {
	if n < 2 {
		return n
	}
	var a int64
	tc.SpawnTask(func(tc2 *Context) { a = ompFib(tc2, n-2) })
	b := ompFib(tc, n-1)
	tc.Taskwait()
	return a + b
}

func TestFib(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(Options{Workers: workers})
		got := p.Run(func(tc *Context) int64 { return ompFib(tc, 16) })
		if want := serialFib(16); got != want {
			t.Errorf("workers=%d: got %d want %d", workers, got, want)
		}
		p.Close()
	}
}

func TestTaskwaitWaitsForChildren(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 2})
	defer p.Close()
	var done atomic.Int64
	p.Run(func(tc *Context) int64 {
		for i := 0; i < 100; i++ {
			tc.SpawnTask(func(*Context) { done.Add(1) })
		}
		tc.Taskwait()
		if got := done.Load(); got != 100 {
			t.Errorf("after taskwait: %d children done, want 100", got)
		}
		return 0
	})
}

func TestNestedTasksComplete(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4})
	defer p.Close()
	var leaves atomic.Int64
	var spawnTree func(tc *Context, depth int)
	spawnTree = func(tc *Context, depth int) {
		if depth == 0 {
			leaves.Add(1)
			return
		}
		tc.SpawnTask(func(tc2 *Context) { spawnTree(tc2, depth-1) })
		tc.SpawnTask(func(tc2 *Context) { spawnTree(tc2, depth-1) })
		tc.Taskwait()
	}
	p.Run(func(tc *Context) int64 {
		spawnTree(tc, 7)
		return 0
	})
	if got := leaves.Load(); got != 128 {
		t.Errorf("leaves = %d, want 128", got)
	}
}

func TestParallelForStatic(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4})
	defer p.Close()
	out := make([]int64, 1000)
	p.Run(func(tc *Context) int64 {
		tc.ParallelFor(0, 1000, Static, 0, func(i int64) { out[i] = i * 2 })
		return 0
	})
	for i, v := range out {
		if v != int64(2*i) {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestParallelForDynamic(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	p := NewPool(Options{Workers: 4})
	defer p.Close()
	out := make([]int64, 777)
	p.Run(func(tc *Context) int64 {
		tc.ParallelFor(0, 777, Dynamic, 32, func(i int64) { out[i] = i + 1 })
		return 0
	})
	for i, v := range out {
		if v != int64(i+1) {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if st := p.Stats(); st.ChunksRun < 777/32 {
		t.Errorf("chunks run = %d, want >= %d", st.ChunksRun, 777/32)
	}
}

func TestParallelForEmpty(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	p.Run(func(tc *Context) int64 {
		tc.ParallelFor(5, 5, Static, 0, func(i int64) { t.Error("body ran") })
		tc.ParallelFor(7, 3, Dynamic, 2, func(i int64) { t.Error("body ran") })
		return 0
	})
}

func TestStats(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	p.Run(func(tc *Context) int64 { return ompFib(tc, 10) })
	st := p.Stats()
	if st.Spawns == 0 || st.Executed != st.Spawns {
		t.Errorf("spawns=%d executed=%d, want equal and nonzero", st.Spawns, st.Executed)
	}
	p.ResetStats()
	if st := p.Stats(); st.Spawns != 0 {
		t.Errorf("after reset spawns=%d", st.Spawns)
	}
}
