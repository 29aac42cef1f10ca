package main

import (
	"fmt"

	"gowool/internal/sched"
)

// probeSeconds bounds each layer probe of the traced run.
const probeSeconds = 0.25

// probeLayers measures the two reference layers below a workload's op:
//
//   - sched: RunRec of the op's job on a 1-worker wool registry pool —
//     what one serving lane runs per request, without the serving
//     layer (sched.runrec_us_*, sched.allocs_per_call);
//   - baseline: the plain serial function on the same input, the
//     reference for all scheduling overhead (baseline.serial_region_us).
//
// Each call is a RunRec or serial span in log.
func probeLayers(r *result, log *spanLog, job sched.RecJob, serial func() int64) {
	want := serial()

	s, _ := sched.Lookup("wool")
	pool := s.NewPool(sched.Options{Workers: 1})
	defer pool.Close()
	for i := 0; i < 50; i++ { // warm-up
		pool.RunRec(job)
	}
	lat := newSamples(1 << 16)
	var mem memDelta
	calls := 0
	mem.start()
	deadline := now() + int64(probeSeconds*1e9)
	for !lat.full() {
		t0 := now()
		v := pool.RunRec(job)
		t1 := now()
		log.add(-1, int64(calls), "RunRec", t0, t1)
		lat.add(t1 - t0)
		calls++
		if v != want {
			r.failed++
			r.mismatch("sched RunRec(%s) = %d, want %d", job.Name, v, want)
		}
		if t1 >= deadline {
			break
		}
	}
	mem.stop()
	r.attempted += int64(calls)
	r.set("sched.runrec_us_p50", lat.q(0.5))
	r.set("sched.runrec_us_p99", lat.q(0.99))
	// The loop's own bookkeeping does not allocate, so this is the
	// exact per-call allocation count of the sched adapter and core.
	r.set("sched.allocs_per_call", mem.mallocs()/float64(calls))

	lat.reset()
	deadline = now() + int64(probeSeconds*1e9)
	for n := int64(0); !lat.full(); n++ {
		t0 := now()
		v := serial()
		t1 := now()
		log.add(-1, n, "serial", t0, t1)
		lat.add(t1 - t0)
		if v != want {
			r.mismatch("serial = %d, want %d", v, want)
		}
		if t1 >= deadline {
			break
		}
	}
	r.set("baseline.serial_region_us", lat.q(0.5))
}

// finishTrace writes the traced run's spans and per-layer self-time
// table and adds the table to the report.
func finishTrace(c config, r *result, log *spanLog, workload string) error {
	table := layerTable(selfTimes(log.spans()))
	stem := fmt.Sprintf("%s-seed%d", workload, c.seed)
	path, err := writeTrace(c.outDir, stem, log.spans(), append([]string{"per-layer self time, " + envStamp(c)}, table...))
	if err != nil {
		return err
	}
	r.note("per-layer self time (spans in %s, %d dropped):", path, log.dropped.Load())
	r.report = append(r.report, table...)
	return nil
}
