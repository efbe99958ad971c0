package agg

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Declarative SLO rules with multi-window burn-rate alerting. A rule
// names a cluster-rollup family and an objective; after every scrape
// the evaluator computes the bad-event fraction over a fast and a
// slow trailing window and the alert fires while BOTH windows burn
// error budget faster than their thresholds — the standard
// multi-window construction: the fast window catches onset, the slow
// window keeps one spike from paging.
//
// Rule kinds:
//
//	latency  Metric is a histogram family; an observation above
//	         Threshold seconds is bad; Quantile sets the objective
//	         (0.99 → at most 1% of observations may be bad).
//	ratio    Metric and Denom are counter families; burn is
//	         (ΔMetric/ΔDenom)/Threshold, the allowed bad fraction.
//	rate     Metric is a counter family; burn is the per-second
//	         increase over Threshold events/sec.
//
// Windows shorter than the scrape history evaluate on what exists —
// a partial window burns against its actual span, so a freshly
// started obsd can still page on a hot failure.

// Rule is one SLO rule.
type Rule struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // latency | ratio | rate
	// Metric is the scraped family name (without rollup prefix); the
	// rule evaluates the cluster: fold of it.
	Metric string `json:"metric"`
	// Denom is the ratio denominator family.
	Denom string `json:"denom,omitempty"`
	// Quantile is the latency objective (default 0.99).
	Quantile float64 `json:"quantile,omitempty"`
	// Threshold: latency → seconds; ratio → allowed bad fraction;
	// rate → allowed events/sec.
	Threshold float64 `json:"threshold"`
	// Fast/Slow windows (defaults 5m / 30m) and their burn-rate trip
	// points (defaults 14.4 / 6 — the SRE-workbook page thresholds).
	FastWindow time.Duration `json:"fast_window"`
	SlowWindow time.Duration `json:"slow_window"`
	FastBurn   float64       `json:"fast_burn"`
	SlowBurn   float64       `json:"slow_burn"`
}

func (r Rule) withDefaults() Rule {
	if r.Quantile <= 0 || r.Quantile >= 1 {
		r.Quantile = 0.99
	}
	if r.FastWindow <= 0 {
		r.FastWindow = 5 * time.Minute
	}
	if r.SlowWindow <= 0 {
		r.SlowWindow = 30 * time.Minute
	}
	if r.FastBurn <= 0 {
		r.FastBurn = 14.4
	}
	if r.SlowBurn <= 0 {
		r.SlowBurn = 6
	}
	return r
}

func (r Rule) validate() error {
	if r.Name == "" || r.Metric == "" {
		return fmt.Errorf("agg: rule needs name and metric: %+v", r)
	}
	switch r.Kind {
	case "latency", "rate":
	case "ratio":
		if r.Denom == "" {
			return fmt.Errorf("agg: ratio rule %s needs denom", r.Name)
		}
	default:
		return fmt.Errorf("agg: rule %s: unknown kind %q", r.Name, r.Kind)
	}
	if r.Threshold <= 0 {
		return fmt.Errorf("agg: rule %s needs a positive threshold", r.Name)
	}
	return nil
}

// ParseRule reads the cmd/obsd -slo flag syntax: comma-separated k=v
// pairs, e.g.
//
//	name=ingest-p99,kind=latency,metric=ingest_seconds,threshold=0.5,q=0.99,fast=5m,slow=30m,fastburn=14.4,slowburn=6
func ParseRule(s string) (Rule, error) {
	var r Rule
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return r, fmt.Errorf("agg: rule clause %q is not k=v", kv)
		}
		var err error
		switch k {
		case "name":
			r.Name = v
		case "kind":
			r.Kind = v
		case "metric":
			r.Metric = v
		case "denom":
			r.Denom = v
		case "q", "quantile":
			r.Quantile, err = strconv.ParseFloat(v, 64)
		case "threshold":
			r.Threshold, err = strconv.ParseFloat(v, 64)
		case "fast":
			r.FastWindow, err = time.ParseDuration(v)
		case "slow":
			r.SlowWindow, err = time.ParseDuration(v)
		case "fastburn":
			r.FastBurn, err = strconv.ParseFloat(v, 64)
		case "slowburn":
			r.SlowBurn, err = strconv.ParseFloat(v, 64)
		default:
			return r, fmt.Errorf("agg: rule clause %q: unknown key", kv)
		}
		if err != nil {
			return r, fmt.Errorf("agg: rule clause %q: %w", kv, err)
		}
	}
	r = r.withDefaults()
	return r, r.validate()
}

// sloSample is one scrape's view of a rule's inputs: cumulative
// totals, so a window delta is two samples subtracted.
type sloSample struct {
	at    time.Time
	hist  obs.HistogramSnapshot // latency rules
	num   float64               // ratio numerator / rate counter
	denom float64               // ratio denominator
}

// Alert is one rule's state in /cluster/alerts.
type Alert struct {
	Rule     Rule    `json:"rule"`
	State    string  `json:"state"` // "ok" | "firing"
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// Current is the instantaneous measure: the latest window's bad
	// fraction (latency/ratio) or rate (rate rules).
	Current string    `json:"current,omitempty"`
	Since   time.Time `json:"since,omitempty"` // firing transition
}

type ruleState struct {
	rule    Rule
	samples []sloSample // time-ordered ring, bounded by slow window
	firing  bool
	since   time.Time
	fast    float64
	slow    float64
	current string
}

type sloState struct {
	mu    sync.Mutex
	rules []*ruleState
}

func newSLOState(rules []Rule) *sloState {
	s := &sloState{}
	for _, r := range rules {
		s.rules = append(s.rules, &ruleState{rule: r.withDefaults()})
	}
	return s
}

// observe folds one scrape's rollup into every rule and re-evaluates.
func (s *sloState) observe(now time.Time, rollup []obs.ExpositionFamily) {
	byName := make(map[string]obs.ExpositionFamily, len(rollup))
	for _, f := range rollup {
		byName[f.Name] = f
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rs := range s.rules {
		sample := sloSample{at: now}
		if f, ok := byName["cluster:"+rs.rule.Metric]; ok {
			for _, m := range f.Metrics {
				if m.Histogram != nil {
					sample.hist = obs.MergeHistogramSnapshots(sample.hist, *m.Histogram)
				}
				if m.Value != nil {
					sample.num += *m.Value
				}
			}
		}
		if rs.rule.Denom != "" {
			if f, ok := byName["cluster:"+rs.rule.Denom]; ok {
				for _, m := range f.Metrics {
					if m.Value != nil {
						sample.denom += *m.Value
					}
				}
			}
		}
		rs.samples = append(rs.samples, sample)
		// Keep one sample older than the slow window so a full-window
		// delta stays computable.
		cut := now.Add(-rs.rule.SlowWindow)
		drop := 0
		for drop < len(rs.samples)-1 && rs.samples[drop+1].at.Before(cut) {
			drop++
		}
		rs.samples = rs.samples[drop:]
		rs.evaluate(now)
	}
}

// windowStart picks the oldest retained sample inside (or at the edge
// of) the window — the partial-window rule: with less history than
// the window the delta spans what exists.
func (rs *ruleState) windowStart(now time.Time, w time.Duration) sloSample {
	cut := now.Add(-w)
	start := rs.samples[0]
	for _, sm := range rs.samples {
		if sm.at.After(cut) {
			break
		}
		start = sm
	}
	return start
}

func (rs *ruleState) evaluate(now time.Time) {
	latest := rs.samples[len(rs.samples)-1]
	burn := func(w time.Duration) (float64, string) {
		start := rs.windowStart(now, w)
		switch rs.rule.Kind {
		case "latency":
			total := float64(latest.hist.Count - start.hist.Count)
			if total <= 0 {
				return 0, "no observations"
			}
			bad := total - deltaGood(start.hist, latest.hist, rs.rule.Threshold)
			frac := bad / total
			return frac / (1 - rs.rule.Quantile), fmt.Sprintf("bad_frac=%.4f", frac)
		case "ratio":
			dd := latest.denom - start.denom
			if dd <= 0 {
				return 0, "no events"
			}
			frac := (latest.num - start.num) / dd
			return frac / rs.rule.Threshold, fmt.Sprintf("ratio=%.4f", frac)
		case "rate":
			secs := latest.at.Sub(start.at).Seconds()
			if secs <= 0 {
				return 0, "no elapsed time"
			}
			rate := (latest.num - start.num) / secs
			return rate / rs.rule.Threshold, fmt.Sprintf("rate=%.4f/s", rate)
		}
		return 0, ""
	}
	var cur string
	rs.fast, cur = burn(rs.rule.FastWindow)
	rs.slow, _ = burn(rs.rule.SlowWindow)
	rs.current = cur
	nowFiring := rs.fast >= rs.rule.FastBurn && rs.slow >= rs.rule.SlowBurn
	if nowFiring && !rs.firing {
		rs.since = now
	}
	rs.firing = nowFiring
}

// deltaGood counts the window's observations at or under the latency
// threshold, from the cumulative bucket delta. The threshold maps to
// the first bucket bound >= it (le semantics); a threshold beyond the
// last finite bound counts everything finite as good.
func deltaGood(start, end obs.HistogramSnapshot, threshold float64) float64 {
	goodAt := func(s obs.HistogramSnapshot) float64 {
		if len(s.Buckets) == 0 {
			return 0
		}
		i := sort.Search(len(s.Buckets), func(i int) bool { return s.Buckets[i].LE >= threshold })
		if i == len(s.Buckets) {
			i = len(s.Buckets) - 1
		}
		if math.IsInf(s.Buckets[i].LE, 1) && i > 0 {
			i-- // the +Inf bucket holds the over-threshold tail
		}
		return float64(s.Buckets[i].Count)
	}
	return goodAt(end) - goodAt(start)
}

// firing counts rules currently firing.
func (s *sloState) firing() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, rs := range s.rules {
		if rs.firing {
			n++
		}
	}
	return n
}

// alerts snapshots every rule.
func (s *sloState) alerts() []Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Alert, 0, len(s.rules))
	for _, rs := range s.rules {
		a := Alert{Rule: rs.rule, State: "ok", FastBurn: rs.fast, SlowBurn: rs.slow, Current: rs.current}
		if rs.firing {
			a.State = "firing"
			a.Since = rs.since
		}
		out = append(out, a)
	}
	return out
}

// Alerts snapshots the SLO rule states.
func (a *Aggregator) Alerts() []Alert { return a.slo.alerts() }
