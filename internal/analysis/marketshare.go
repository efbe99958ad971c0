package analysis

import (
	"repro/internal/cmps"
	"repro/internal/psl"
	"repro/internal/simtime"
	"repro/internal/toplist"
)

// MarketSharePoint is one x-position of Figure 5 (and A.4–A.6): the
// cumulative share of websites embedding each CMP among the toplist's
// first Size entries at the snapshot day.
type MarketSharePoint struct {
	Size int
	// Count[cmp] is the number of top-Size websites using the CMP.
	Count map[cmps.ID]int
	// Share[cmp] = Count[cmp] / Size.
	Share map[cmps.ID]float64
	// TotalShare is the share using any studied CMP.
	TotalShare float64
}

// MarketShareByRank computes cumulative market share as a function of
// toplist size at the snapshot day.
func MarketShareByRank(p *PresenceDB, list *toplist.List, day simtime.Day, sizes []int) []MarketSharePoint {
	var points []MarketSharePoint
	counts := make(map[cmps.ID]int)
	total := 0
	next := 0
	for i, domain := range list.Domains {
		if id := p.CMPAt(domain, day); id != cmps.None {
			counts[id]++
			total++
		}
		for next < len(sizes) && i+1 == sizes[next] {
			points = append(points, snapshotPoint(sizes[next], counts, total))
			next++
		}
	}
	// Sizes beyond the list length are reported at the full list.
	for next < len(sizes) {
		if sizes[next] >= list.Len() {
			points = append(points, snapshotPoint(list.Len(), counts, total))
			break
		}
		next++
	}
	return points
}

func snapshotPoint(size int, counts map[cmps.ID]int, total int) MarketSharePoint {
	pt := MarketSharePoint{
		Size:  size,
		Count: make(map[cmps.ID]int, len(counts)),
		Share: make(map[cmps.ID]float64, len(counts)),
	}
	for c, n := range counts {
		pt.Count[c] = n
		pt.Share[c] = float64(n) / float64(size)
	}
	pt.TotalShare = float64(total) / float64(size)
	return pt
}

// SharePoint is one sample of the store-driven market-share series:
// at Day, how many distinct observed domains each CMP served, among
// all domains with any presence interval.
type SharePoint struct {
	Day simtime.Day
	// Count[cmp] is the number of domains using the CMP at Day.
	Count map[cmps.ID]int
	// WithCMP is the number of domains with any CMP at Day.
	WithCMP int
	// Share[cmp] = Count[cmp] / WithCMP (0 when WithCMP is 0).
	Share map[cmps.ID]float64
}

// CMPShareSeries samples per-CMP domain counts and relative shares at
// each day, over every domain in the presence DB. Unlike
// MarketShareByRank it needs no toplist — it is the market-share
// analysis a live capture stream can answer on its own, and the shape
// the analyzed marketshare view serves.
func CMPShareSeries(p *PresenceDB, days []simtime.Day) []SharePoint {
	points := make([]SharePoint, len(days))
	for i, day := range days {
		points[i] = SharePoint{Day: day, Count: make(map[cmps.ID]int), Share: make(map[cmps.ID]float64)}
	}
	for _, ivs := range p.intervals {
		for i, day := range days {
			for _, iv := range ivs {
				if day >= iv.Start && day < iv.End && iv.CMP != cmps.None {
					points[i].Count[iv.CMP]++
					points[i].WithCMP++
					break
				}
			}
		}
	}
	for i := range points {
		if points[i].WithCMP == 0 {
			continue
		}
		for id, n := range points[i].Count {
			points[i].Share[id] = float64(n) / float64(points[i].WithCMP)
		}
	}
	return points
}

// EUUKShare computes, per CMP, the share of its websites with an EU or
// UK TLD at the snapshot day (Section 4.1: Quantcast 38.3%, OneTrust
// 16.3%).
func EUUKShare(p *PresenceDB, day simtime.Day) map[cmps.ID]float64 {
	count := make(map[cmps.ID]int)
	euuk := make(map[cmps.ID]int)
	for domain, ivs := range p.intervals {
		var id cmps.ID
		for _, iv := range ivs {
			if day >= iv.Start && day < iv.End {
				id = iv.CMP
				break
			}
		}
		if id == cmps.None {
			continue
		}
		count[id]++
		if psl.IsEUUK(domain) {
			euuk[id]++
		}
	}
	out := make(map[cmps.ID]float64, len(count))
	for id, n := range count {
		if n > 0 {
			out[id] = float64(euuk[id]) / float64(n)
		}
	}
	return out
}
