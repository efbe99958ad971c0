// Package resilience hardens the deployment-shaped crawl path against
// the hostile substrate the paper's platform lived on: transient
// outages, anti-bot interstitials and aggressive timeouts caused ~9% of
// toplist loads to fail (Section 3.5), and the production pipeline must
// not lose those shares silently.
//
// The package provides the building blocks the stream pipeline and
// capd wire together:
//
//   - failure classification (Classify*): transient vs. terminal, the
//     split behind the paper's Section 3.5 loss categories;
//   - RetryPolicy: capped exponential backoff with deterministic,
//     seed-derived jitter and a bounded attempt budget;
//   - MemDeadLetter: the terminal parking lot for shares that exhaust
//     their budget, so nothing is dropped without a trace;
//   - HTTPLimiter: load shedding with 429 + Retry-After.
//
// Every decision here is a function of the share alone — its seed,
// URL, day and attempt — never of what other shares did before it, so
// a share's outcome is the same in whatever order the shares are
// crawled.
package resilience

import (
	"strings"
	"time"

	"repro/internal/capture"
	"repro/internal/rng"
)

// Class is the retry-relevance of a capture failure.
type Class int

const (
	// Success: a usable capture was produced (including "soft"
	// failures the platform records as-is: HTTP 4xx/5xx pages,
	// anti-bot interstitial pages, geo-blocks — all real observations
	// of the web, not crawl losses).
	Success Class = iota
	// Retryable: a transient loss — outage, connection reset, timeout,
	// injected interstitial — that a later attempt may recover, as the
	// paper's toplist procedure does ("three times over a week",
	// Section 3.2).
	Retryable
	// Terminal: retrying cannot help — unknown or unreachable domain,
	// malformed seed URL, no valid HTTP response. Recorded as a failed
	// capture immediately, matching the platform's record-everything
	// behaviour.
	Terminal
)

// String returns the class label.
func (c Class) String() string {
	switch c {
	case Success:
		return "success"
	case Retryable:
		return "retryable"
	case Terminal:
		return "terminal"
	default:
		return "unknown"
	}
}

// terminalPatterns mark failures where the loss category is permanent
// (Section 3.5: invalid domains, unreachable hosts, no valid response).
// They are checked before retryablePatterns: "connection refused" must
// not be caught by a broader transient match.
var terminalPatterns = []string{
	"connection refused",
	"unknown domain",
	"has no host",
	"parse seed",
	"no valid http response",
}

// retryablePatterns mark transient losses worth another attempt.
var retryablePatterns = []string{
	"temporarily unavailable",
	"connection reset",
	"timed out",
	"timeout",
	"interstitial",
	"transient",
	"502",
	"503",
	"504",
	"429",
}

// ClassifyError classifies a capture error message. It is total and
// deterministic over arbitrary (including malformed) input: unknown
// errors default to Retryable, the standard crawler posture — a share
// is only abandoned to the dead-letter sink after its budget, never on
// first sight of an unrecognized error.
func ClassifyError(msg string) Class {
	m := strings.ToLower(msg)
	for _, p := range terminalPatterns {
		if strings.Contains(m, p) {
			return Terminal
		}
	}
	for _, p := range retryablePatterns {
		if strings.Contains(m, p) {
			return Retryable
		}
	}
	return Retryable
}

// ClassifyCapture classifies a completed browser load.
func ClassifyCapture(c *capture.Capture) Class {
	if c == nil {
		return Terminal
	}
	if !c.Failed {
		return Success
	}
	return ClassifyError(c.Error)
}

// RetryPolicy is a bounded exponential-backoff schedule. The zero value
// disables retries (MaxAttempts <= 1): every capture, failed or not, is
// recorded on the first attempt — the pipeline's historical behaviour.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget including the first
	// load; <= 1 disables retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
	// Multiplier grows the delay per attempt (default 2).
	Multiplier float64
	// Jitter is the fraction of the delay randomized around its
	// midpoint, in (0,1] (0 means the default 0.5; negative disables
	// jitter entirely). Jitter is drawn from the pipeline's rng.Source
	// keyed by (share, attempt), so a given seed reproduces the exact
	// backoff schedule.
	Jitter float64
}

// Enabled reports whether the policy retries at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// withDefaults fills unset knobs.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	switch {
	case p.Jitter == 0:
		p.Jitter = 0.5
	case p.Jitter < 0:
		p.Jitter = 0
	case p.Jitter > 1:
		p.Jitter = 1
	}
	return p
}

// Backoff returns the deterministic jittered delay before retry number
// `retry` (1-based: the delay after the first failed attempt is
// Backoff(src, 1, …)). Keys identify the share so concurrent workers
// draw independent, reorder-stable jitter.
func (p RetryPolicy) Backoff(src *rng.Source, retry int, key ...string) time.Duration {
	p = p.withDefaults()
	d := float64(p.BaseDelay)
	for i := 1; i < retry; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 && src != nil {
		u := src.Float64(append([]string{"backoff", rng.Key(retry)}, key...)...)
		d *= 1 - p.Jitter/2 + p.Jitter*u
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}
