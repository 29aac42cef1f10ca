//go:build race

package sched_test

// raceEnabled reports whether the race detector is on; its shadow
// allocations make testing.AllocsPerRun counts meaningless.
const raceEnabled = true
