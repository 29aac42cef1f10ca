package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// clock is the benchmark's monotonic time base: nanoseconds since
// process start, cheap to store in int64 fields.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// quantile returns the q-quantile of xs (sorted in place), linearly
// interpolated between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median of a few values (copied, so the caller's order survives).
func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

// usSamples is a preallocated latency buffer in microseconds: sized in
// set-up, so recording never allocates and the benchmark's own heap
// use does not vary with throughput. float32 keeps ~7 significant
// digits, more than the clock resolves.
type usSamples struct{ v []float32 }

func newSamples(capacity int) usSamples { return usSamples{make([]float32, 0, capacity)} }

// add records ns nanoseconds; reports false when the buffer is full.
func (s *usSamples) add(ns int64) bool {
	if len(s.v) == cap(s.v) {
		return false
	}
	s.v = append(s.v, float32(float64(ns)/1e3))
	return true
}

// f64 copies samples for sorting.
func f64(v []float32) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// chunkMin is the smallest chunk chunked splits samples into: a 99th
// percentile then has at least ten samples beyond it.
const chunkMin = 1000

// maxChunks caps the chunk count of a phase.
const maxChunks = 32

// chunks splits the samples, in recording order, into consecutive
// chunks (at least chunkMin each, at most maxChunks) and returns f of
// each.
func (s *usSamples) chunks(f func([]float64) float64) []float64 {
	n := len(s.v)
	size := max(chunkMin, n/maxChunks)
	if n < 2*size {
		return []float64{f(f64(s.v))}
	}
	var out []float64
	for lo := 0; lo+size <= n; lo += size {
		hi := lo + size
		if n-hi < size {
			hi = n // the remainder joins the last chunk
		}
		out = append(out, f(f64(s.v[lo:hi])))
	}
	return out
}

// chunked returns the median over chunks of each chunk's q-quantile. A
// host stall of a few milliseconds — this benchmark runs on small
// shared machines — lands in one chunk and moves the median little,
// while a slower program moves every chunk.
func (s *usSamples) chunked(q float64) float64 {
	return median(s.chunks(func(c []float64) float64 { return quantile(c, q) }))
}

// chunkedRate returns the median over chunks of ops per second of
// typical op time, for back-to-back ops whose latencies were
// recorded: 1 / the chunk's interquartile mean (the mean of its middle
// half). On a shared host, stalls of several milliseconds come in
// periods that can cover whole runs and hit a few percent of the ops;
// they land in the top quarter, which a plain mean would let swing the
// rate by a quarter between runs.
func (s *usSamples) chunkedRate() float64 {
	return median(s.chunks(func(c []float64) float64 { return 1e6 / interquartileMean(c) }))
}

// interquartileMean sorts xs and returns the mean of its middle half.
func interquartileMean(xs []float64) float64 {
	slices.Sort(xs)
	mid := xs[len(xs)/4 : len(xs)-len(xs)/4]
	var t float64
	for _, x := range mid {
		t += x
	}
	return t / float64(len(mid))
}

func (s *usSamples) reset()              { s.v = s.v[:0] }
func (s *usSamples) q(q float64) float64 { return quantile(f64(s.v), q) }
func (s *usSamples) full() bool          { return len(s.v) == cap(s.v) }

// heapPeak tracks the peak of live heap object bytes, sampled through
// runtime/metrics (no stop-the-world) at most every 5 ms.
type heapPeak struct {
	sample []metrics.Sample
	last   int64
	peak   uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{sample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

// poll samples the heap when 5 ms passed since the last sample.
func (h *heapPeak) poll(t int64) {
	if t-h.last < 5e6 {
		return
	}
	h.last = t
	metrics.Read(h.sample)
	if v := h.sample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }

// memDelta is the allocation and GC activity over an interval, from
// runtime.ReadMemStats at its two ends.
type memDelta struct {
	m0, m1 runtime.MemStats
}

func (d *memDelta) start() { runtime.ReadMemStats(&d.m0) }
func (d *memDelta) stop()  { runtime.ReadMemStats(&d.m1) }

func (d *memDelta) mallocs() float64 { return float64(d.m1.Mallocs - d.m0.Mallocs) }
func (d *memDelta) gcCycles() float64 {
	return float64(d.m1.NumGC - d.m0.NumGC)
}
func (d *memDelta) gcPauseUs() float64 {
	return float64(d.m1.PauseTotalNs-d.m0.PauseTotalNs) / 1e3
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setupRounds is how many times each workload sets up in one run; the
// reported setup_s is the median.
const setupRounds = 9
