package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// ungated lists the perfbench workloads BENCHMARK.json leaves out
// (README.md gives the measured spreads that keep them out).
var ungated = []string{"fib-pool"}

// TestSpecNames checks that every workload and metric name in
// BENCHMARK.json is well formed, and that the file lists exactly the
// gated workloads and the metrics (with units) this program reports.
func TestSpecNames(t *testing.T) {
	spec := readSpec(t)
	var names, listed []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		listed = append(listed, w.Name)
	}
	var gated []string
	for _, w := range workloadNames() {
		if !slices.Contains(ungated, w) {
			gated = append(gated, w)
		}
	}
	slices.Sort(listed)
	if !slices.Equal(listed, gated) {
		t.Errorf("BENCHMARK.json workloads %v, want the gated perfbench workloads %v", listed, gated)
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if !slices.Equal(got, want) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\nperfbench      %v", kind, got, want)
		}
		for _, m := range got {
			names = append(names, m.name)
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
	seen := map[string]bool{}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that the run is correct and reports every metric of its mode
// with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			c := config{workload: name, seed: 7, seconds: 1, trace: trace, outDir: t.TempDir()}
			r, err := workloads[name](c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			s := summarize(c, r)
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d wrong=%v",
					name, trace, s.Correct, s.Attempted, s.Failed, r.wrong)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(s.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(s.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := s.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				if _, computed := r.metrics[d.name]; !computed && !bypassed(name, d.name) {
					t.Errorf("%s trace=%v: metric %s never computed", name, trace, d.name)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if s.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, s.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestSpawnOracle checks the fib-pool oracle's exact count: a region
// spawns fibw.Tasks(fibN) tasks, so a traced run reports exactly that.
func TestSpawnOracle(t *testing.T) {
	c := config{workload: "fib-pool", seed: 1, seconds: 1, trace: true, outDir: t.TempDir()}
	r, err := runBatch(c, fibPool())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.metrics["core.spawns_per_region"], float64(fibPool().spawns); got != want {
		t.Errorf("core.spawns_per_region = %v, want exactly %v", got, want)
	}
}

// bypassed reports whether workload w never exercises what per-layer
// metric m measures; such a metric reports 0 on w.
func bypassed(w, m string) bool {
	batch := w == "fib-pool" || w == "stress-regions"
	switch {
	case batch && (strings.HasPrefix(m, "serve.") || strings.HasPrefix(m, "resilience.") ||
		strings.HasPrefix(m, "gen.") || strings.HasPrefix(m, "e2e.open_") || m == "e2e.max_rate_rps"):
		return true
	case strings.HasPrefix(m, "e2e.cancel_") || m == "serve.cancel_midflight_share":
		return w != "serve-mixed"
	case m == "core.first_steal_us" || m == "core.worker1_leaf_share":
		return !batch // serving lanes are one worker wide
	}
	return false
}
