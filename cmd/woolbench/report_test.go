package main

import (
	"path/filepath"
	"testing"
)

// TestCommittedReports loads every committed BENCH_*.json through
// readReport, without measuring anything, and checks that the perf
// gate can run against it: every gated, ceilinged and ratio key has a
// baseline record, and every gated key a measurement procedure.
func TestCommittedReports(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json found")
	}
	gates := 0
	for _, path := range paths {
		rep, err := readReport(path)
		if err != nil {
			t.Error(err)
			continue
		}
		if len(rep.Records) == 0 {
			t.Errorf("%s: no records", path)
		}
		if rep.Gate == nil {
			continue
		}
		gates++
		baseline := func(key string) {
			if _, ok := rep.find(key, labels{}); !ok {
				t.Errorf("%s: gate names %s, which has no unlabeled record", path, key)
			}
		}
		for _, key := range rep.Gate.Keys {
			baseline(key)
			if _, ok := ladderRungs[key]; !ok {
				t.Errorf("%s: gated key %s has no measureLadderKey procedure", path, key)
			}
		}
		for key := range rep.Gate.Ceilings {
			baseline(key)
		}
		baseline("spawn_join_generated_private_ns")
		baseline("spawn_join_generic_private_ns")
	}
	if gates != 1 {
		t.Errorf("%d committed reports carry a gate, want 1 (BENCH_registry.json)", gates)
	}
}
