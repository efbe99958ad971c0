package detect

import (
	"math/bits"

	"repro/internal/cmps"
	"repro/internal/obs"
)

// Metrics is the detector's classification recorder: per-CMP capture
// counts and the multi-CMP overcount. A nil *Metrics (what NewMetrics
// returns for a nil registry) is the no-op recorder, so the detection
// hot paths stay allocation-free and pay a single nil check when
// telemetry is off.
type Metrics struct {
	// captures is indexed by the first detected cmps.ID (0 = none);
	// children are pre-resolved so the hot path never touches the
	// vec's map.
	captures [cmps.Count + 1]*obs.Counter
	multi    *obs.Counter
}

// NewMetrics registers the detection metric families on reg; returns
// nil (the no-op recorder) when reg is nil.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	vec := obs.NewCounterVec(reg, "detect_captures_total",
		`Classified captures by first detected CMP ("none" when no fingerprint matched).`,
		"cmp")
	m := &Metrics{
		multi: obs.NewCounter(reg, "detect_multi_cmp_total",
			"Captures matching more than one CMP fingerprint (the Section 3.5 overcount)."),
	}
	m.captures[cmps.None] = vec.With(cmps.None.String())
	for _, id := range cmps.All() {
		m.captures[id] = vec.With(id.String())
	}
	return m
}

// one books a single-result classification (DetectOne, Detect).
func (m *Metrics) one(id cmps.ID) {
	if m != nil {
		m.captures[id].Inc()
	}
}

// masked books a DetectMask classification including the overcount.
func (m *Metrics) masked(first cmps.ID, mask uint32) {
	if m == nil {
		return
	}
	m.captures[first].Inc()
	if bits.OnesCount32(mask) > 1 {
		m.multi.Inc()
	}
}

// SetMetrics attaches the recorder to the detector's classification
// paths. Call before sharing the detector across goroutines; nil
// detaches.
func (d *Detector) SetMetrics(m *Metrics) { d.m = m }
