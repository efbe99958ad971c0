package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func timeMS(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

func TestTailPermille(t *testing.T) {
	// The rule: the highest percentile that still has at least ten
	// samples beyond it.
	for _, tc := range []struct {
		n    int
		want int
	}{
		{0, 0}, {99, 0}, {100, 900}, {199, 900}, {200, 950},
		{999, 950}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPermille(tc.n); got != tc.want {
			t.Errorf("tailPermille(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	var samples []float64
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		samples = append(samples, float64(i))
	}
	s := summarize(samples)
	if s.N != 1000 || s.P50 != 500 || s.TailP != 99 || s.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v, want n=1000 p50=500 p99=990", s)
	}
	if s := summarize([]float64{3, 1, 2}); s.P50 != 2 || s.TailP != 0 || s.Tail != 0 {
		t.Errorf("summarize of three samples = %+v, want the median alone", s)
	}
	if s := summarize(nil); s != (latencySummary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, {[]float64{7}, 7}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(vals, n=4) from CPython.
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 12}, 9.5, 11, 12.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{100, 100, 100}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	// Two sets are compared by their plain relative difference, not by
	// quartiles extrapolated beyond them.
	if got := spread([]float64{98, 102}); !near(got, 0.04) {
		t.Errorf("spread(98, 102) = %v, want 0.04", got)
	}
	if got := spread([]float64{90, 100, 120}); !near(got, 0.3) {
		t.Errorf("spread(90, 100, 120) = %v, want 0.3", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.window", Start: 0, End: 100},
		{ID: 2, Name: "fleet.push", Start: 0, End: 100},
		// Children overlap each other and one outlives the parent.
		{ID: 3, Name: "replica.ingest", Start: 10, End: 40},
		{ID: 4, Name: "replica.ingest", Start: 30, End: 60},
		{ID: 5, Name: "replica.ingest", Start: 90, End: 120},
	}
	resolveParents(spans, 1)
	for _, s := range spans[2:] {
		if s.Parent != 2 {
			t.Fatalf("span %d parent = %d, want the push", s.ID, s.Parent)
		}
	}
	self := selfTimes(spans)
	// [10,60) and [90,100) are covered: 100 - 60 = 40.
	if self[2] != 40 {
		t.Errorf("push self time = %d, want 40", self[2])
	}
	if self[5] != 30 {
		t.Errorf("leaf self time = %d, want its whole duration 30", self[5])
	}
	if self[1] != 0 {
		t.Errorf("root self time = %d, want 0: the push covers it", self[1])
	}
}

func TestResolveParentsPrefersTraceThenContainment(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.window", Start: 0, End: 1000},
		{ID: 2, Name: "fleet.push", Trace: "at:0", Start: 100, End: 400},
		{ID: 3, Name: "fleet.push", Trace: "at:32", Start: 150, End: 300},
		// Carries at:0 although the at:32 push started later.
		{ID: 4, Name: "replica.ingest", Trace: "at:0", Start: 160, End: 390},
		// No trace: the push that still contains its start wins over
		// the later one that has ended.
		{ID: 5, Name: "capstore.ingest", Start: 350, End: 380},
		{ID: 6, Name: "replica.ingest", Start: 320, End: 330},
		// A visit has no candidate parent and hangs under the root.
		{ID: 7, Name: "crawler.visit", Start: 500, End: 600},
	}
	resolveParents(spans, 1)
	want := map[int]int{2: 1, 3: 1, 4: 2, 5: 4, 6: 2, 7: 1}
	for _, s := range spans[1:] {
		if s.Parent != want[s.ID] {
			t.Errorf("span %d (%s) parent = %d, want %d", s.ID, s.Name, s.Parent, want[s.ID])
		}
	}
}

func TestAttribute(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.window", Start: 0, End: 100e9},
		{ID: 2, Name: "crawler.visit", Start: 0, End: 50e9},
		{ID: 3, Name: "fleet.push", Start: 40e9, End: 70e9},
		{ID: 4, Name: "replica.ingest", Start: 45e9, End: 65e9},
	}
	b := attribute(spans, 1)
	if !near(b.Unattributed, 0.3) {
		t.Errorf("unattributed = %v, want 0.3: nothing covers [70,100)", b.Unattributed)
	}
	if !near(b.SelfSeconds["crawler"], 50) || !near(b.SelfSeconds["fleet"], 10) || !near(b.SelfSeconds["replica"], 20) {
		t.Errorf("self seconds = %v, want crawler 50, fleet 10, replica 20", b.SelfSeconds)
	}
	if !near(b.NameSeconds["replica.ingest"], 20) {
		t.Errorf("replica.ingest self = %v, want 20", b.NameSeconds["replica.ingest"])
	}
	if layer, share := b.slowest(); layer != "crawler" || !near(share, 50.0/80) {
		t.Errorf("slowest = %s %v, want crawler 0.625", layer, share)
	}
}

func TestViewLags(t *testing.T) {
	at := func(ms int) (s sample) {
		s.t = s.t.Add(timeMS(ms))
		return s
	}
	mk := func(ms int, committed, cursor int64) sample {
		s := at(ms)
		s.committed, s.cursor = committed, cursor
		return s
	}
	samples := []sample{
		mk(0, 0, 0),
		mk(5, 10, 0),   // level 10 first seen at 5
		mk(10, 10, 0),  // no new level
		mk(15, 30, 10), // level 30 first seen at 15; cursor reaches 10 → lag 10
		mk(20, 30, 30), // cursor reaches 30 → lag 5
	}
	got := viewLags(samples)
	if len(got) != 2 || !near(got[0], 10) || !near(got[1], 5) {
		t.Errorf("viewLags = %v, want [10 5]", got)
	}
}
