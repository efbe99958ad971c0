package resilience

import "repro/internal/obs"

// RegisterMetrics publishes the limiter's admission-queue state on
// reg: requests in flight, capacity, and the cumulative admitted/shed
// counters. Nil-safe on both receiver and registry.
func (l *HTTPLimiter) RegisterMetrics(reg *obs.Registry) {
	if l == nil || reg == nil {
		return
	}
	obs.NewGaugeFunc(reg, "resilience_http_in_flight",
		"Admitted requests currently being served.",
		func() float64 { return float64(l.inFlight.Load()) })
	obs.NewGaugeFunc(reg, "resilience_http_max_in_flight",
		"Concurrent-request ceiling before load shedding.",
		func() float64 { return float64(l.cfg.MaxInFlight) })
	obs.NewCounterFunc(reg, "resilience_http_admitted_total",
		"Requests admitted past the limiter.", l.admitted.Load)
	obs.NewCounterFunc(reg, "resilience_http_shed_total",
		"Requests shed with 429 + Retry-After.", l.shed.Load)
}
