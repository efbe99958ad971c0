package detect

import (
	"repro/internal/cmps"
	"repro/internal/simtime"
)

// Rec is one capture's compact detection record: the day it was taken
// and the first detected CMP (0 = none). Eight bytes per capture is all
// the longitudinal analyses retain; internal/analysis.PresenceFold
// accumulates them per domain and classifies them through ClassifyRecs.
type Rec struct {
	Day int32
	CMP int8 // cmps.ID of the first detected CMP; 0 = none
}

// DayObservation is a domain's classification on one observed day.
type DayObservation struct {
	Day simtime.Day
	// CMP is the classified provider for the day, or cmps.None. A day
	// is classified as CMP-using if one CMP appears in at least every
	// third capture of that day (SiteHeuristicThreshold).
	CMP cmps.ID
	// Share is the fraction of the day's captures containing the
	// classified CMP (0 for None).
	Share float64
	// Captures is the day's capture count.
	Captures int
}

// ClassifyRecs aggregates a domain's detection records (sorted by day)
// into classified day observations, applying the per-day share
// threshold (pass SiteHeuristicThreshold for the paper's ≥⅓ rule).
// The classification is count-based per day, so any record order
// within a day yields the same result; ties between CMPs break in
// cmps.All order. This is the single day-classification
// implementation, used by the presence fold for both its intervals and
// its per-day queries.
func ClassifyRecs(recs []Rec, threshold float64) []DayObservation {
	if recs == nil {
		return nil
	}
	var out []DayObservation
	for i := 0; i < len(recs); {
		j := i
		var counts [cmps.Count + 1]int
		for j < len(recs) && recs[j].Day == recs[i].Day {
			counts[recs[j].CMP]++
			j++
		}
		total := j - i
		obs := DayObservation{Day: simtime.Day(recs[i].Day), Captures: total}
		best, bestCount := cmps.None, 0
		for _, id := range cmps.All() {
			if counts[id] > bestCount {
				best, bestCount = id, counts[id]
			}
		}
		if bestCount > 0 && float64(bestCount) >= threshold*float64(total) {
			obs.CMP = best
			obs.Share = float64(bestCount) / float64(total)
		}
		out = append(out, obs)
		i = j
	}
	return out
}
