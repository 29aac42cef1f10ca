package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
)

// reportSchema tags every woolbench report (BENCH_registry.json,
// BENCH_steal.json, BENCH_serve.json); readReport rejects any other.
const reportSchema = "woolbench/v1"

// report is the one machine-readable shape every woolbench writer
// produces: the environment the numbers came from, one flat record
// list, the perf gate contract where the file carries one, and notes
// saying how each record was measured.
type report struct {
	Schema  string            `json:"schema"`
	Env     env               `json:"env"`
	Records []record          `json:"records"`
	Gate    *gate             `json:"gate,omitempty"`
	Notes   map[string]string `json:"notes"`
}

// env is the host and runtime a report was measured on.
type env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Scale      string `json:"scale,omitempty"`
}

// record is one measured value. Samples holds the repetitions Value
// was taken from, when the writer repeats the measurement; Labels
// names the grid point a per-cell value belongs to and is empty for a
// file-wide value.
type record struct {
	Key     string    `json:"key"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples []float64 `json:"samples,omitempty"`
	Labels  labels    `json:"labels,omitzero"`
}

// labels are the grid coordinates a record can carry.
type labels struct {
	Backend  string `json:"backend,omitempty"`
	Workload string `json:"workload,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Amount   string `json:"amount,omitempty"`
	Kind     string `json:"kind,omitempty"`
}

// gate is the committed contract the CI perf gate enforces. Its
// baselines are the file's unlabeled records of the same keys.
type gate struct {
	// Keys are the record keys re-measured and compared against the
	// committed baseline values.
	Keys []string `json:"keys"`
	// Tolerance is the allowed relative regression per key (0.05 =
	// fail when a key is more than 5% slower than the baseline).
	// WOOL_PERFGATE_TOLERANCE overrides it for noisy runners.
	Tolerance float64 `json:"tolerance"`
	// Ceilings are absolute bounds in the key's own unit, enforced on
	// the freshly measured value regardless of the baseline — the
	// repo's acceptance criteria, machine-independent only in so far
	// as the bound was chosen with headroom.
	Ceilings map[string]float64 `json:"ceilings,omitempty"`
	// MaxGeneratedOverGeneric bounds the machine-independent ratio
	// spawn_join_generated_private_ns / spawn_join_generic_private_ns:
	// the monomorphic path must never fall behind the generic path it
	// specializes (1.10 leaves room for timer noise).
	MaxGeneratedOverGeneric float64 `json:"max_generated_over_generic"`
}

// bestOf records the minimum of samples: the measured code has no slow
// warm-up, so min is the noise-robust estimator.
func bestOf(key, unit string, samples []float64, l labels) record {
	return record{Key: key, Unit: unit, Value: slices.Min(samples), Samples: samples, Labels: l}
}

// find returns the record with key and labels l.
func (r *report) find(key string, l labels) (record, bool) {
	for _, rec := range r.Records {
		if rec.Key == key && rec.Labels == l {
			return rec, true
		}
	}
	return record{}, false
}

// benchEnv raises GOMAXPROCS to at least procs, so multi-worker pools
// get their threads on small hosts, and returns the environment the
// run then measures in together with the function restoring
// GOMAXPROCS.
func benchEnv(procs int, scale string) (env, func()) {
	restore := func() {}
	if gmp := runtime.GOMAXPROCS(0); gmp < procs {
		runtime.GOMAXPROCS(procs)
		restore = func() { runtime.GOMAXPROCS(gmp) }
	}
	return env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      scale,
	}, restore
}

// writeReport stamps rep with the schema tag and writes it to path.
func writeReport(path string, rep *report) error {
	rep.Schema = reportSchema
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// readReport loads a report written by writeReport.
func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, reportSchema)
	}
	return &rep, nil
}
