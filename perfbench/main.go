// Command perfbench is the repository's benchmark: four workloads that
// stress different layers of gowool (the core spawn/join fast path,
// short-region load balancing, and the request-serving path), each
// checked against a serial reference, reported as named end-to-end
// metrics, and — in a separate traced run — attributed to layers.
//
// Usage:
//
//	perfbench --workload fib-pool --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set.
// The lines before it are a human-readable report. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's contract; BENCHMARK.json lists the same names and units
// (perfbench_test.go keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported for
// every workload with --trace 0 and gated by BENCHMARK.json's bounds.
// An op is one fork-join region on the batch workloads and one request
// on the serve workloads; ops_per_s and lat_p50_us come from the
// closed loop (see README.md for why the open-loop figures are not
// gated).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the traced run's metrics (--trace 1). A layer a
// workload bypasses reports 0 (see bypassed in the tests). The e2e.* entries are
// end-to-end metrics that cannot carry a relative bound: they apply to
// only some workloads, are ~0 on some, or spread too widely between
// runs on a small shared machine (README.md has the measured spreads).
var perLayer = []metricDef{
	{"core.spawns_per_region", "count"},
	{"core.ns_per_task", "ns"},
	{"core.private_join_share", "ratio"},
	{"core.steals_per_region", "count"},
	{"core.steal_success_ratio", "ratio"},
	{"core.leap_steals_per_region", "count"},
	{"core.publications_per_region", "count"},
	{"core.privatizations_per_region", "count"},
	{"core.backoffs_per_region", "count"},
	{"core.parks_per_region", "count"},
	{"core.wakes_per_region", "count"},
	{"core.first_steal_us", "us"},
	{"core.worker1_leaf_share", "ratio"},
	{"baseline.serial_region_us", "us"},
	{"sched.runrec_us_p50", "us"},
	{"sched.runrec_us_p99", "us"},
	{"sched.allocs_per_call", "count"},
	{"serve.submit_us_p50", "us"},
	{"serve.submit_us_p99", "us"},
	{"serve.dispatch_us_p50", "us"},
	{"serve.dispatch_us_p99", "us"},
	{"serve.service_us_p50", "us"},
	{"serve.ticket_latency_us_p50", "us"},
	{"serve.wake_us_p50", "us"},
	{"serve.pending_max", "count"},
	{"serve.cancel_midflight_share", "ratio"},
	{"resilience.shed_overload", "count"},
	{"resilience.shed_deadline", "count"},
	{"resilience.shed_circuit", "count"},
	{"resilience.quarantines", "count"},
	{"resilience.replacements", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_total_us", "us"},
	{"gen.lag_p99_us", "us"},
	{"gen.offered_rps", "1/s"},
	{"e2e.lat_p99_us", "us"},
	{"e2e.open_p50_us", "us"},
	{"e2e.open_p99_us", "us"},
	{"e2e.max_rate_rps", "1/s"},
	{"e2e.cancel_p50_us", "us"},
	{"e2e.cancel_p99_us", "us"},
	{"e2e.fail_ratio", "ratio"},
	{"e2e.allocs_per_op", "count"},
	{"trace.ops_overhead_share", "ratio"},
	{"trace.lat_p50_overhead_share", "ratio"},
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// outDir receives the traced run's span file and layer table.
	outDir string
}

// result is what a workload run produces.
type result struct {
	attempted, failed int64
	// wrong lists oracle violations (wrong values, count mismatches);
	// any entry makes the run incorrect. Clients and the collector
	// report concurrently, hence wrongMu.
	wrongMu sync.Mutex
	wrong   []string
	metrics map[string]float64
	// report holds extra human-readable lines (phase tables, the
	// per-layer self-time table, the tracing overhead).
	report []string
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func (r *result) mismatch(format string, args ...any) {
	r.wrongMu.Lock()
	defer r.wrongMu.Unlock()
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"fib-pool":       func(c config) (*result, error) { return runBatch(c, fibPool()) },
	"stress-regions": func(c config) (*result, error) { return runBatch(c, stressRegions()) },
	"serve-small":    func(c config) (*result, error) { return runServe(c, serveSmall()) },
	"serve-mixed":    func(c config) (*result, error) { return runServe(c, serveMixed()) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// lanes is the worker (batch) and lane (serve) count: two, or fewer on
// a smaller machine, so load never exceeds nproc.
func lanes() int { return min(2, runtime.NumCPU()) }

// commit returns the VCS revision the binary was built from, or
// "unknown" outside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// envStamp identifies the environment a result was measured in.
func envStamp(c config) string {
	return fmt.Sprintf("go=%s nproc=%d gomaxprocs=%d lanes=%d seed=%d commit=%s",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), lanes(), c.seed, commit())
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize picks the metrics the mode reports.
func summarize(c config, r *result) summary {
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	s := summary{
		Correct:   len(r.wrong) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		s.Metrics[d.name] = metricValue{r.metrics[d.name], d.unit}
	}
	return s
}

// printReport writes the human-readable report: the environment stamp,
// every metric the run computed with its unit, and the extra lines.
func printReport(c config, r *result) {
	fmt.Printf("perfbench workload=%s trace=%v seconds=%g\n", c.workload, c.trace, c.seconds)
	fmt.Printf("env: %s\n", envStamp(c))
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, r.metrics[n], units[n])
	}
	for _, l := range r.report {
		fmt.Println(l)
	}
	fmt.Printf("ops: attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, w := range r.wrong {
		fmt.Printf("WRONG: %s\n", w)
	}
}

func main() {
	var c config
	var traceFlag int
	var seconds int
	flag.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&c.seed, "seed", 1, "seed for the serve schedules")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&c.outDir, "out", ".bench_build/perfbench/trace", "directory for the traced run's spans and layer table")
	flag.Parse()
	c.seconds = float64(seconds)
	c.trace = traceFlag != 0
	run, ok := workloads[c.workload]
	if !ok || seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --workload must be one of %s and --seconds >= 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	r, err := run(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printReport(c, r)
	s := summarize(c, r)
	out, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !s.Correct {
		os.Exit(1)
	}
}
