package sched

import "sort"

// Stats is the normalized counter set. Each backend maps its native
// counters onto these fields (the paper's notation in parentheses);
// counters with no cross-scheduler meaning go to Extra under stable
// snake_case keys, so registry-driven tools can print everything a
// backend knows without hard-coding its Stats struct.
//
// The normalization fixes the naming drift the backends grew
// independently (JoinsInlinedPublic/Private vs JoinsInlined, Backoffs
// vs LockFailures vs an uncounted CAS loss):
//
//   - core: Backoffs are steals aborted by the bot re-check;
//     JoinsInlined sums the public and private inline joins (the split
//     is in Extra).
//   - chaselev: Backoffs are owner pops that lost the last-element CAS
//     race to a thief — previously dropped on the floor, now counted.
//   - locksched: Backoffs are TryLock failures.
//   - cilkstyle: joins are not events (continuations resume instead);
//     suspends/resumes are in Extra.
//   - ompstyle: a central pool has no steals; its queue traffic is in
//     Extra.
//   - gonative: the Go runtime exposes no counters (Caps.Stats false).
type Stats struct {
	// Spawns counts tasks created (N_T).
	Spawns int64
	// JoinsInlined counts joins that inlined their task.
	JoinsInlined int64
	// JoinsStolen counts joins that found their task stolen.
	JoinsStolen int64
	// Steals counts successful steals (N_M).
	Steals int64
	// StealAttempts counts steal attempts, successful or not.
	StealAttempts int64
	// Backoffs counts aborted thief/victim synchronization attempts:
	// the bot re-check (core), a lost last-element CAS (chaselev), a
	// failed TryLock (locksched).
	Backoffs int64
	// Extra holds backend-specific counters under stable keys.
	Extra map[string]int64
}

// Joins returns the total joins (inlined + stolen).
func (s Stats) Joins() int64 { return s.JoinsInlined + s.JoinsStolen }

// ExtraKeys returns the Extra keys in sorted order (stable printing).
func (s Stats) ExtraKeys() []string {
	keys := make([]string, 0, len(s.Extra))
	for k := range s.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
