// Package analytics maintains the paper's analyses as incrementally
// updated materialized views over a live capture stream. The batch
// pipeline (cmd/analyze -store) and the long-lived service
// (cmd/analyzed) both run on the Engine in this package, so their
// answers agree byte-for-byte at every ingest commit cursor — the
// invariant the prefix-replay test enforces (DESIGN.md §14).
package analytics

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/cmps"
	"repro/internal/gvl"
	"repro/internal/simtime"
)

// View names served by the engine.
const (
	ViewAdoption    = "adoption"
	ViewCoverage    = "coverage"
	ViewMarketShare = "marketshare"
	ViewGVL         = "gvl"
)

// ViewNames lists every materialized view, in serving order.
func ViewNames() []string {
	return []string{ViewAdoption, ViewCoverage, ViewMarketShare, ViewGVL}
}

// ViewInfo is one /views catalog entry.
type ViewInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Cursor      int64  `json:"cursor"`
}

func describeView(name string) string {
	switch name {
	case ViewAdoption:
		return "CMP adoption over time with detected spikes (Figure 6)"
	case ViewCoverage:
		return "per-month and cumulative vantage/config tables (Tables 1, A.3)"
	case ViewMarketShare:
		return "per-CMP domain share series and EU/UK TLD share (Section 4.1)"
	case ViewGVL:
		return "GVL vendor and purpose growth series (Figure 7)"
	default:
		return ""
	}
}

// cmpCounts re-keys a per-CMP map by CMP name so the JSON form is
// self-describing and key order is deterministic.
func cmpCounts(m map[cmps.ID]int) map[string]int {
	out := make(map[string]int, len(m))
	for id, n := range m {
		out[id.String()] = n
	}
	return out
}

func cmpShares(m map[cmps.ID]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for id, v := range m {
		out[id.String()] = v
	}
	return out
}

// AdoptionView is the adoption materialized view: the Figure 6 series
// sampled over the whole observation window, plus detected spikes.
type AdoptionView struct {
	View     string              `json:"view"`
	Cursor   int64               `json:"cursor"`
	Domains  int                 `json:"domains"`
	StepDays int                 `json:"step_days"`
	Points   []AdoptionViewPoint `json:"points"`
	Spikes   []SpikeView         `json:"spikes"`
}

// AdoptionViewPoint is one sampled day of the adoption series.
type AdoptionViewPoint struct {
	Day    int            `json:"day"`
	Date   string         `json:"date"`
	Total  int            `json:"total"`
	Counts map[string]int `json:"counts"`
}

// SpikeView is one detected adoption spike.
type SpikeView struct {
	Month  int     `json:"month"`
	Date   string  `json:"date"`
	Growth int     `json:"growth"`
	Ratio  float64 `json:"ratio"`
}

// The adoption view's two parameters are the batch pipeline's
// (cmd/analyze: Figure 6 is sampled weekly, and a month is a spike when
// its growth exceeds 3× the median month's), so the served view answers
// the same question as the paper's figure.
const (
	adoptionStepDays   = 7
	adoptionSpikeRatio = 3
)

func buildAdoptionView(p *analysis.PresenceDB, cursor int64) *AdoptionView {
	domains := p.Domains()
	points := analysis.AdoptionOverTime(p, domains, adoptionStepDays)
	v := &AdoptionView{
		View:     ViewAdoption,
		Cursor:   cursor,
		Domains:  len(domains),
		StepDays: adoptionStepDays,
		Points:   make([]AdoptionViewPoint, 0, len(points)),
		Spikes:   []SpikeView{},
	}
	for _, pt := range points {
		v.Points = append(v.Points, AdoptionViewPoint{
			Day:    int(pt.Day),
			Date:   pt.Day.String(),
			Total:  pt.Total,
			Counts: cmpCounts(pt.Counts),
		})
	}
	for _, sp := range analysis.DetectAdoptionSpikes(points, adoptionSpikeRatio) {
		v.Spikes = append(v.Spikes, SpikeView{
			Month:  int(sp.Month),
			Date:   sp.Month.String(),
			Growth: sp.Growth,
			Ratio:  sp.Ratio,
		})
	}
	return v
}

// TableView is a vantage table in JSON form: per-CMP counts by
// vantage/config column, column totals, and coverage relative to the
// best column.
type TableView struct {
	Configs  []string                  `json:"configs"`
	Counts   map[string]map[string]int `json:"counts"`
	Totals   map[string]int            `json:"totals"`
	Coverage map[string]float64        `json:"coverage"`
}

func tableView(t *analysis.VantageTable) TableView {
	v := TableView{
		Configs:  t.Configs,
		Counts:   make(map[string]map[string]int, len(t.Counts)),
		Totals:   t.Totals,
		Coverage: t.Coverage,
	}
	if v.Configs == nil {
		v.Configs = []string{}
	}
	for id, byConfig := range t.Counts {
		v.Counts[id.String()] = byConfig
	}
	return v
}

// CoverageView is the coverage materialized view: one vantage table
// per folded calendar month plus the cumulative whole-window table.
type CoverageView struct {
	View       string              `json:"view"`
	Cursor     int64               `json:"cursor"`
	Months     []CoverageMonthView `json:"months"`
	Cumulative TableView           `json:"cumulative"`
}

// CoverageMonthView is one month's table.
type CoverageMonthView struct {
	Month int       `json:"month"`
	Date  string    `json:"date"`
	Table TableView `json:"table"`
}

func buildCoverageView(f *analysis.CoverageFold, cursor int64) *CoverageView {
	v := &CoverageView{
		View:       ViewCoverage,
		Cursor:     cursor,
		Months:     []CoverageMonthView{},
		Cumulative: tableView(f.Cumulative()),
	}
	for _, month := range f.Months() {
		v.Months = append(v.Months, CoverageMonthView{
			Month: int(month),
			Date:  month.String(),
			Table: tableView(f.MonthTable(month)),
		})
	}
	return v
}

// MarketShareView is the market-share materialized view: per-CMP
// domain shares sampled monthly, plus the end-of-window EU/UK TLD
// share per CMP.
type MarketShareView struct {
	View   string                 `json:"view"`
	Cursor int64                  `json:"cursor"`
	Points []MarketSharePointView `json:"points"`
	EUUK   map[string]float64     `json:"euuk_share"`
}

// MarketSharePointView is one sampled day of the share series.
type MarketSharePointView struct {
	Day     int                `json:"day"`
	Date    string             `json:"date"`
	WithCMP int                `json:"with_cmp"`
	Counts  map[string]int     `json:"counts"`
	Shares  map[string]float64 `json:"shares"`
}

func buildMarketShareView(p *analysis.PresenceDB, cursor int64) *MarketShareView {
	days := analysis.MonthlyDays(0, simtime.Day(simtime.NumDays-1))
	v := &MarketShareView{
		View:   ViewMarketShare,
		Cursor: cursor,
		Points: make([]MarketSharePointView, 0, len(days)),
		EUUK:   cmpShares(analysis.EUUKShare(p, simtime.Day(simtime.NumDays-1))),
	}
	for _, pt := range analysis.CMPShareSeries(p, days) {
		v.Points = append(v.Points, MarketSharePointView{
			Day:     int(pt.Day),
			Date:    pt.Day.String(),
			WithCMP: pt.WithCMP,
			Counts:  cmpCounts(pt.Count),
			Shares:  cmpShares(pt.Share),
		})
	}
	return v
}

// GVLView is the GVL materialized view: the Figure 7 vendor/purpose
// growth series. It derives from the deterministic GVL history seed,
// not the capture stream, so its payload is constant across cursors
// apart from the cursor stamp.
type GVLView struct {
	View   string         `json:"view"`
	Cursor int64          `json:"cursor"`
	Points []GVLViewPoint `json:"points"`
}

// GVLViewPoint is one GVL version's datum.
type GVLViewPoint struct {
	Version     int            `json:"version"`
	Date        string         `json:"date"`
	VendorCount int            `json:"vendor_count"`
	Consent     map[string]int `json:"consent"`
	LegInt      map[string]int `json:"leg_int"`
}

func purposeKeys(m map[int]int) map[string]int {
	out := make(map[string]int, len(m))
	for p, n := range m {
		out[fmt.Sprintf("%d", p)] = n
	}
	return out
}

// gvlPoints memoizes buildGVLPoints per history config for the
// process: a history is a pure function of its config, and the points
// are only ever read, so every engine after the first of a config
// skips generating the history.
var gvlPoints sync.Map // gvl.HistoryConfig → []GVLViewPoint

// gvlPointsOf returns the gvl view's points for cfg, built once.
func gvlPointsOf(cfg gvl.HistoryConfig) []GVLViewPoint {
	if pts, ok := gvlPoints.Load(cfg); ok {
		return pts.([]GVLViewPoint)
	}
	pts, _ := gvlPoints.LoadOrStore(cfg, buildGVLPoints(gvl.GenerateHistory(cfg)))
	return pts.([]GVLViewPoint)
}

func buildGVLPoints(h *gvl.History) []GVLViewPoint {
	series := h.PurposeSeries()
	points := make([]GVLViewPoint, 0, len(series))
	for _, pt := range series {
		points = append(points, GVLViewPoint{
			Version:     pt.Version,
			Date:        pt.Date.UTC().Format(time.RFC3339),
			VendorCount: pt.VendorCount,
			Consent:     purposeKeys(pt.Consent),
			LegInt:      purposeKeys(pt.LegInt),
		})
	}
	return points
}
