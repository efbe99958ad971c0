package crawler

import (
	"repro/internal/obs"
	"repro/internal/resilience"
)

// StreamMetrics is the streaming pipeline's telemetry recorder: a
// visit-latency histogram, per-outcome counters, and dead-letter
// counts by reason. A nil *StreamMetrics (what NewStreamMetrics
// returns for a nil registry) is the no-op recorder — instrumented
// code pays one nil check and nothing else.
type StreamMetrics struct {
	// VisitSeconds is the wall time from dequeue to terminal outcome
	// (recorded capture or dead-letter), retries and backoff included.
	VisitSeconds *obs.Histogram
	// Succeeded and Failed split recorded captures by usability.
	Succeeded *obs.Counter
	Failed    *obs.Counter
	// Retries counts loads beyond each share's first attempt.
	Retries *obs.Counter

	// deadLetters pre-resolves the known reasons so the hot path never
	// touches the vec's map; deadVec covers reasons added later.
	deadLetters map[string]*obs.Counter
	deadVec     *obs.CounterVec
}

// NewStreamMetrics registers the pipeline's metric families on reg;
// returns nil (the no-op recorder) when reg is nil.
func NewStreamMetrics(reg *obs.Registry) *StreamMetrics {
	if reg == nil {
		return nil
	}
	vec := obs.NewCounterVec(reg, "crawler_dead_letters_total",
		"Shares routed to the dead-letter sink, by reason.", "reason")
	m := &StreamMetrics{
		VisitSeconds: obs.NewHistogram(reg, "crawler_visit_seconds",
			"Wall time from dequeue to terminal outcome per share, retries included.",
			obs.LatencyBuckets),
		Succeeded: obs.NewCounter(reg, "crawler_visits_succeeded_total",
			"Recorded captures that produced a usable page."),
		Failed: obs.NewCounter(reg, "crawler_visits_failed_total",
			"Recorded captures with terminal failures."),
		Retries: obs.NewCounter(reg, "crawler_retries_total",
			"Retry loads beyond each share's first attempt."),
		deadLetters: make(map[string]*obs.Counter, 3),
		deadVec:     vec,
	}
	for _, reason := range []string{
		resilience.ReasonBudgetExhausted,
		resilience.ReasonCancelled,
		resilience.ReasonShutdownDrop,
	} {
		m.deadLetters[reason] = vec.With(reason)
	}
	return m
}

// recordVisit books a recorded capture's outcome.
func (m *StreamMetrics) recordVisit(ok bool) {
	if m == nil {
		return
	}
	if ok {
		m.Succeeded.Inc()
	} else {
		m.Failed.Inc()
	}
}

// retry books one retry load.
func (m *StreamMetrics) retry() {
	if m != nil {
		m.Retries.Inc()
	}
}

// deadLetter books one dead-lettered share under its reason.
func (m *StreamMetrics) deadLetter(reason string) {
	if m == nil {
		return
	}
	if c, ok := m.deadLetters[reason]; ok {
		c.Inc()
		return
	}
	m.deadVec.With(reason).Inc()
}

// RegisterMetrics publishes the platform's live state on reg — capture
// queue depth and capacity — complementing the per-visit recorder in
// StreamConfig.Metrics. Call it once, before Run.
func (p *StreamPlatform) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	obs.NewGaugeFunc(reg, "crawler_queue_depth",
		"Shares waiting in the bounded capture queue.",
		func() float64 { return float64(len(p.queue)) })
	obs.NewGaugeFunc(reg, "crawler_queue_capacity",
		"Capture queue bound; ingestion blocks when depth reaches it.",
		func() float64 { return float64(cap(p.queue)) })
}
