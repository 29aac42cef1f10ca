// Package resilience is the self-healing policy layer behind woolserve
// (DESIGN.md §17). internal/serve turns the paper's batch pools into a
// request-serving runtime; this package decides what the server does
// under *sustained* failure and overload, where the per-request
// mechanisms (poison-then-Reset, MaxPending) are the wrong shape:
//
//   - Breaker: a per-tenant circuit breaker (closed → open →
//     half-open over a sliding failure-rate window) that sheds a
//     persistently failing tenant fast, instead of burning a lane on
//     every doomed request.
//
//   - Estimator: an EWMA service-time estimator per (tenant, job
//     class) behind deadline-aware admission — a request whose
//     remaining deadline is below the estimated service time is
//     rejected up front, so doomed work never occupies a lane.
//
//   - Retrier: per-tenant retry budgets with jittered exponential
//     backoff for requests the caller marked retry-safe, so transient
//     failures heal without retries amplifying an outage.
//
//   - QuarantineConfig: the thresholds behind lane quarantine — a
//     lane whose failures streak, whose Reset fails, or whose probe
//     keeps failing is pulled from rotation and hot-replaced by the
//     serving layer (the team-rebuilding idea of arXiv:1012.5030
//     applied to bad lanes rather than shifting demand).
//
// Outcome classification is shared with the rest of the stack through
// the poolerr taxonomy (retryable / non-retryable / shed): breakers
// count retryable-class and unknown-class outcomes as failures, sheds
// and cancellations as neither success nor failure.
//
// Everything here is deliberately mechanism-only: the package holds
// state machines and accounting, takes time as an argument or an
// injected clock, derives jitter from a seeded splitmix64 stream
// (internal/chaos.RNG), and never spawns goroutines — the serving
// layer owns scheduling, so tests drive these types deterministically.
package resilience

import "time"

// Options bundles the server-wide resilience settings. The zero value
// enables every subsystem with the defaults documented on each config.
type Options struct {
	// DisableDeadline turns off deadline-aware admission.
	DisableDeadline bool

	// Breaker is the per-tenant breaker config (zero fields defaulted).
	Breaker BreakerConfig
	// Estimator is the per-tenant estimator config (zero fields
	// defaulted).
	Estimator EstimatorConfig
	// Retry is the per-tenant retry config (zero fields defaulted).
	Retry RetryConfig
	// Quarantine is the lane-quarantine config (zero fields defaulted).
	Quarantine QuarantineConfig

	// Seed seeds the retry-jitter streams; 0 means a fixed default so
	// runs are replayable by construction.
	Seed uint64
}

// QuarantineConfig tunes when the serving layer pulls a lane from
// rotation and hot-replaces its pool.
type QuarantineConfig struct {
	// FailureStreak quarantines a lane after this many consecutive
	// failure-class requests with no success in between. Default 8;
	// <0 disables the streak trigger (Reset failures still trigger).
	FailureStreak int
	// ProbeBackoff is the wait between failed probe attempts on a
	// quarantined lane. Default 10ms.
	ProbeBackoff time.Duration
}

// Defaulted fills zero fields with the defaults.
func (q QuarantineConfig) Defaulted() QuarantineConfig {
	if q.FailureStreak == 0 {
		q.FailureStreak = 8
	}
	if q.ProbeBackoff <= 0 {
		q.ProbeBackoff = 10 * time.Millisecond
	}
	return q
}
