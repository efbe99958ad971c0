package analysis

import (
	"testing"

	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/detect"
	"repro/internal/simtime"
)

// Edge cases the incremental refactor must not regress: empty worlds,
// single-day windows, and domains that switch CMPs mid-window.

func TestDetectAdoptionSpikesEmptyWorld(t *testing.T) {
	if got := DetectAdoptionSpikes(nil, 3); got != nil {
		t.Errorf("nil series: got %v, want nil", got)
	}
	// An all-zero series (domains observed, none adopting) has no
	// positive growth and therefore no median to spike against.
	var flat []AdoptionPoint
	for d := 0; d < simtime.NumDays; d += 7 {
		flat = append(flat, AdoptionPoint{Day: simtime.Day(d), Counts: map[cmps.ID]int{}})
	}
	if got := DetectAdoptionSpikes(flat, 3); got != nil {
		t.Errorf("flat series: got %v, want nil", got)
	}
}

func TestDetectAdoptionSpikesSingleDayWindow(t *testing.T) {
	// One sample — fewer than the three month aggregates the detector
	// needs — must yield no spikes rather than divide by zero.
	pts := []AdoptionPoint{{Day: simtime.Day(0), Total: 5, Counts: map[cmps.ID]int{cmps.OneTrust: 5}}}
	if got := DetectAdoptionSpikes(pts, 3); got != nil {
		t.Errorf("single point: got %v, want nil", got)
	}
}

func TestCMPShareSeriesEmptyWorld(t *testing.T) {
	fold := NewPresenceFold(detect.Default())
	p := fold.Presence()
	days := []simtime.Day{0, 100, simtime.Day(simtime.NumDays - 1)}
	pts := CMPShareSeries(p, days)
	if len(pts) != len(days) {
		t.Fatalf("got %d points, want %d", len(pts), len(days))
	}
	for _, pt := range pts {
		if pt.WithCMP != 0 || len(pt.Count) != 0 || len(pt.Share) != 0 {
			t.Errorf("day %d: empty world produced nonzero share %+v", pt.Day, pt)
		}
	}
}

func TestCMPShareSeriesSingleDayWindow(t *testing.T) {
	det := detect.Default()
	fold := NewPresenceFold(det)
	day := int(simtime.Date(2019, 6, 1))
	// Two domains observed on exactly one day each: intervals collapse
	// to the minimal censored span around that day.
	fold.Fold(foldCap("one.example", day, cmps.OneTrust, capture.EUCloud, "default"))
	fold.Fold(foldCap("two.example", day, cmps.Quantcast, capture.EUCloud, "default"))
	p := fold.Presence()

	pts := CMPShareSeries(p, []simtime.Day{simtime.Day(day)})
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	pt := pts[0]
	if pt.WithCMP != 2 {
		t.Fatalf("WithCMP = %d, want 2", pt.WithCMP)
	}
	if pt.Share[cmps.OneTrust] != 0.5 || pt.Share[cmps.Quantcast] != 0.5 {
		t.Errorf("shares = %v, want 0.5 each", pt.Share)
	}
	// A day far outside the censored fade-out sees no presence at all.
	far := CMPShareSeries(p, []simtime.Day{0})[0]
	if far.WithCMP != 0 {
		t.Errorf("day 0 WithCMP = %d, want 0", far.WithCMP)
	}
}

// TestCMPShareSeriesMidWindowSwitch drives a domain that switches
// CMPs mid-window through the fold, snapshotting between the two
// halves to exercise the dirty-domain re-interpolation transition.
func TestCMPShareSeriesMidWindowSwitch(t *testing.T) {
	det := detect.Default()
	fold := NewPresenceFold(det)
	mid := simtime.NumDays / 2
	// Dense observations so interpolation has no gaps to censor away.
	for d := 0; d < mid; d += 3 {
		fold.Fold(foldCap("switcher.example", d, cmps.OneTrust, capture.EUCloud, "default"))
	}
	before := CMPShareSeries(fold.Presence(), []simtime.Day{simtime.Day(mid / 2)})[0]
	if before.Count[cmps.OneTrust] != 1 {
		t.Fatalf("before switch: %+v", before)
	}
	for d := mid; d < simtime.NumDays; d += 3 {
		fold.Fold(foldCap("switcher.example", d, cmps.Quantcast, capture.EUCloud, "default"))
	}
	p := fold.Presence()

	early := CMPShareSeries(p, []simtime.Day{simtime.Day(mid / 2)})[0]
	late := CMPShareSeries(p, []simtime.Day{simtime.Day(mid + mid/2)})[0]
	if early.Count[cmps.OneTrust] != 1 || early.Count[cmps.Quantcast] != 0 {
		t.Errorf("early half: %+v, want OneTrust only", early.Count)
	}
	if late.Count[cmps.Quantcast] != 1 || late.Count[cmps.OneTrust] != 0 {
		t.Errorf("late half: %+v, want Quantcast only", late.Count)
	}

	// The switch must also be visible as adjacent intervals with
	// different CMPs — the fold-state transition itself.
	ivs := p.Intervals("switcher.example")
	var sawSwitch bool
	for i := 1; i < len(ivs); i++ {
		if ivs[i-1].CMP == cmps.OneTrust && ivs[i].CMP == cmps.Quantcast {
			sawSwitch = true
		}
	}
	if !sawSwitch {
		t.Errorf("no OneTrust→Quantcast interval transition in %+v", ivs)
	}
}
