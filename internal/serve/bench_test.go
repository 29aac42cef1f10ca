package serve

import (
	"context"
	"testing"

	"gowool/internal/sched"
	"gowool/internal/workloads/fibw"
)

// BenchmarkServeRoundTrip times one small request through the serving
// layer — Submit+Wait of a fib(8) job on a one-lane server with
// default options — and the same job run directly on a pool of the
// lane's shape (the default backend, one worker, private tasks), so
// the gap between the two is what the serving layer adds per request.
func BenchmarkServeRoundTrip(b *testing.B) {
	job := fibw.Job(8, 1)
	want := fibw.Serial(8)
	b.Run("SubmitWait", func(b *testing.B) {
		s, err := New(Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		req := Rec(job)
		ctx := context.Background()
		b.ReportAllocs()
		for b.Loop() {
			tk, err := s.Submit(ctx, "", req)
			if err != nil {
				b.Fatal(err)
			}
			if got, err := tk.Wait(); err != nil || got != want {
				b.Fatalf("fib(8) = %d, %v; want %d", got, err, want)
			}
		}
	})
	b.Run("RunRec", func(b *testing.B) {
		sch, ok := sched.Lookup(defaultBackend)
		if !ok {
			b.Fatalf("%s backend not registered", defaultBackend)
		}
		p := sch.NewPool(sched.Options{Workers: 1, PrivateTasks: true})
		defer p.Close()
		b.ReportAllocs()
		for b.Loop() {
			if got := p.RunRec(job); got != want {
				b.Fatalf("fib(8) = %d, want %d", got, want)
			}
		}
	})
}
