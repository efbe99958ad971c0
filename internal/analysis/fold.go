package analysis

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"sync"

	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/detect"
	"repro/internal/interp"
	"repro/internal/simtime"
)

// Incremental folds: the longitudinal analyses re-expressed as
// Fold(state, row) → state plus a snapshot step, so materialized
// views can advance record-by-record as captures stream in instead of
// re-reading the whole world per run (DESIGN.md §14).
//
// The fold contract every state type here obeys: state is partitioned
// by final registrable domain, and folding depends only on the
// relative order of records *within* one domain. Any interleaving of
// a capture stream that preserves per-domain order — the ingest commit
// order, a shard-by-shard batch sweep, or a live per-shard follower —
// folds to an identical state, and therefore to byte-identical
// snapshots. This is the same decomposition the capture store's
// hash-partitioned shards implement, which is what lets a follower
// consume per-shard segment streams without a global sequence number.
//
// A fold reads a Row, not a capture: a record's keys and its one
// detection. Every record is classified once, by whoever builds its
// row, and every fold reads that one classification.

// ConfigKeyOf returns a capture's vantage/configuration column key,
// matching crawler.ConfigKey for campaign-produced captures (e.g.
// "eu-university/extended-timeout").
func ConfigKeyOf(c *capture.Capture) string {
	return c.Vantage.Name + "/" + c.Config
}

// Row is what the folds read of one record. RowOf builds it from a
// capture; the analytics follower builds it from a stored line's keys
// (capturedb.Keys) without decoding the line. Both give equal rows for
// one record, so no fold can tell which producer fed it.
type Row struct {
	// Domain is the final registrable domain. Vantage and Config are
	// the parts of the vantage/configuration column ConfigKeyOf joins.
	Domain, Vantage, Config string
	Day                     simtime.Day
	Failed                  bool
	// CMP is the first CMP matched in request order, cmps.None when
	// none matched; Mask has bit i set iff cmps.ID(i) matched. A row
	// the folds skip (!Folded) is not classified: both stay zero.
	CMP  cmps.ID
	Mask uint32
}

// Folded reports whether the folds read the row: failed and
// domain-less records fold to a no-op.
func (r *Row) Folded() bool { return !r.Failed && r.Domain != "" }

// RowOf classifies c into its row with one DetectMask, or none for a
// row the folds skip. It allocates nothing.
func RowOf(det *detect.Detector, c *capture.Capture) Row {
	r := Row{Domain: c.FinalDomain, Vantage: c.Vantage.Name, Config: c.Config, Day: c.Day, Failed: c.Failed}
	if r.Folded() {
		r.CMP, r.Mask = det.DetectMask(c)
	}
	return r
}

// RowsOf is RowOf over a batch of captures.
func RowsOf(det *detect.Detector, caps []*capture.Capture) []Row {
	rows := make([]Row, len(caps))
	for i, c := range caps {
		rows[i] = RowOf(det, c)
	}
	return rows
}

// foldDomain is one domain's presence-fold state: the compact
// detection records plus a lazily rebuilt interval cache.
type foldDomain struct {
	recs   []detect.Rec
	sorted bool
	dirty  bool
}

// sortedRecs returns the domain's records sorted by day, sorting
// lazily. Callers hold the fold's lock.
func (d *foldDomain) sortedRecs() []detect.Rec {
	if !d.sorted {
		sort.Slice(d.recs, func(i, j int) bool { return d.recs[i].Day < d.recs[j].Day })
		d.sorted = true
	}
	return d.recs
}

// PresenceFold is the one presence implementation: it accumulates
// per-domain detection records row by row and maintains a
// presence-interval cache that is re-interpolated only for domains
// that changed since the last snapshot. The social crawl records into
// it as the StreamPlatform's sink, and the analytics engine folds
// committed store records into it. Only an 8-byte record per capture
// is retained, mirroring how the paper's analyses consume the capture
// database rather than raw page data.
//
// PresenceFold is safe for concurrent use. Detection, the expensive
// part of a fold, runs outside its one mutex; under it a fold is a map
// lookup and an append (DESIGN.md §7 "One presence lock").
type PresenceFold struct {
	det *detect.Detector

	mu       sync.Mutex
	domains  map[string]*foldDomain
	presence map[string][]interp.Interval // domains with ≥1 interval

	// Total counts folded non-failed captures; MultiCMP those matching
	// more than one CMP (the paper's overcount quantification, Section
	// 3.5: 0.01% of captures). Read them once folding has quiesced.
	Total    int64
	MultiCMP int64
}

// NewPresenceFold returns an empty fold classifying with det and
// interpolating as the paper does (interp.Options{}); Rebuild answers
// under other options.
func NewPresenceFold(det *detect.Detector) *PresenceFold {
	return &PresenceFold{
		det:      det,
		domains:  make(map[string]*foldDomain),
		presence: make(map[string][]interp.Interval),
	}
}

// Fold advances the state by one capture, classified outside the
// lock. Failed and domain-less captures fold to a no-op.
func (f *PresenceFold) Fold(c *capture.Capture) {
	r := RowOf(f.det, c)
	f.mu.Lock()
	f.fold(&r)
	f.mu.Unlock()
}

// FoldRows advances the state by a batch of rows under one lock.
func (f *PresenceFold) FoldRows(rows []Row) {
	f.mu.Lock()
	for i := range rows {
		f.fold(&rows[i])
	}
	f.mu.Unlock()
}

// fold advances the state by one row. Callers hold f.mu.
func (f *PresenceFold) fold(r *Row) {
	if !r.Folded() {
		return
	}
	f.Total++
	if bits.OnesCount32(r.Mask) > 1 {
		f.MultiCMP++
	}
	d := f.domains[r.Domain]
	if d == nil {
		d = &foldDomain{}
		f.domains[r.Domain] = d
	}
	d.recs = append(d.recs, detect.Rec{Day: int32(r.Day), CMP: int8(r.CMP)})
	d.sorted = false
	d.dirty = true
}

// Record implements capture.Sink, so a crawl records straight into
// the fold.
func (f *PresenceFold) Record(c *capture.Capture) { f.Fold(c) }

// refresh re-interpolates every dirty domain, leaving the interval
// cache consistent with the folded records. Callers hold f.mu.
func (f *PresenceFold) refresh() {
	for domain, d := range f.domains {
		if !d.dirty {
			continue
		}
		ivs := interp.Build(detect.ClassifyRecs(d.sortedRecs(), detect.SiteHeuristicThreshold), interp.Options{})
		if len(ivs) > 0 {
			f.presence[domain] = ivs
		} else {
			delete(f.presence, domain)
		}
		d.dirty = false
	}
}

// Presence snapshots the fold into a PresenceDB. Only domains that
// changed since the previous snapshot are re-interpolated. The
// returned DB aliases the fold's interval cache and is valid until the
// next Fold call.
func (f *PresenceFold) Presence() *PresenceDB {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.refresh()
	return &PresenceDB{intervals: f.presence}
}

// Rebuild interpolates every folded domain afresh under opts (the
// interpolation ablations) into a new PresenceDB. The fold's own
// interval cache, and so every DB Presence returned, is untouched.
func (f *PresenceFold) Rebuild(opts interp.Options) *PresenceDB {
	f.mu.Lock()
	defer f.mu.Unlock()
	db := &PresenceDB{intervals: make(map[string][]interp.Interval)}
	for domain, d := range f.domains {
		if ivs := interp.Build(detect.ClassifyRecs(d.sortedRecs(), detect.SiteHeuristicThreshold), opts); len(ivs) > 0 {
			db.intervals[domain] = ivs
		}
	}
	return db
}

// NumDomains returns how many distinct final domains were folded.
func (f *PresenceFold) NumDomains() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.domains)
}

// Observed reports whether the domain ever appeared as a final domain
// in the folded stream.
func (f *PresenceFold) Observed(domain string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.domains[domain]
	return ok
}

// Domains returns the observed domain names, sorted.
func (f *PresenceFold) Domains() []string {
	f.mu.Lock()
	out := make([]string, 0, len(f.domains))
	for d := range f.domains {
		out = append(out, d)
	}
	f.mu.Unlock()
	sort.Strings(out)
	return out
}

// DayObservations returns a domain's classified days in ascending
// order under a per-day share threshold: detect.SiteHeuristicThreshold
// for the paper's ≥⅓-captures rule, others for the site-heuristic
// ablation. Returns nil for unobserved domains.
func (f *PresenceFold) DayObservations(domain string, threshold float64) []detect.DayObservation {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := f.domains[domain]
	if d == nil {
		return nil
	}
	return detect.ClassifyRecs(d.sortedRecs(), threshold)
}

// DailyShareDistribution reports, over all domain-days with at least
// minCaptures, how many had a CMP-capture share below lo, above hi, or
// in between. The paper reports that for 99.8% of all domains the
// daily share is consistently below 5% or above 95%.
func (f *PresenceFold) DailyShareDistribution(minCaptures int, lo, hi float64) (below, between, above int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, d := range f.domains {
		recs := d.sortedRecs()
		for i := 0; i < len(recs); {
			j := i
			withCMP := 0
			for j < len(recs) && recs[j].Day == recs[i].Day {
				if recs[j].CMP != 0 {
					withCMP++
				}
				j++
			}
			total := j - i
			i = j
			if total < minCaptures {
				continue
			}
			share := float64(withCMP) / float64(total)
			switch {
			case share < lo:
				below++
			case share > hi:
				above++
			default:
				between++
			}
		}
	}
	return below, between, above
}

// presenceFoldState is the checkpoint wire form of a PresenceFold:
// per-domain records as flat [day, cmp, day, cmp, …] arrays.
type presenceFoldState struct {
	Total    int64              `json:"total"`
	MultiCMP int64              `json:"multi_cmp"`
	Domains  map[string][]int32 `json:"domains"`
}

// MarshalState serializes the fold for checkpointing. The interval
// cache is derived state and is rebuilt on restore.
func (f *PresenceFold) MarshalState() ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := presenceFoldState{
		Total:    f.Total,
		MultiCMP: f.MultiCMP,
		Domains:  make(map[string][]int32, len(f.domains)),
	}
	for domain, d := range f.domains {
		flat := make([]int32, 0, 2*len(d.recs))
		for _, r := range d.recs {
			flat = append(flat, r.Day, int32(r.CMP))
		}
		st.Domains[domain] = flat
	}
	return json.Marshal(st)
}

// UnmarshalState restores a checkpointed fold, replacing any folded
// state. Every restored domain is dirty: intervals rebuild on the
// first snapshot. A record whose day lies outside the observation
// window or whose CMP is not 0..cmps.Count is rejected, since the
// snapshot would index out of range on it; a rejected state leaves
// the fold untouched.
func (f *PresenceFold) UnmarshalState(b []byte) error {
	var st presenceFoldState
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("analysis: presence fold state: %w", err)
	}
	domains := make(map[string]*foldDomain, len(st.Domains))
	for domain, flat := range st.Domains {
		if len(flat)%2 != 0 {
			return fmt.Errorf("analysis: presence fold state: odd record array for %q", domain)
		}
		d := &foldDomain{recs: make([]detect.Rec, 0, len(flat)/2), dirty: true}
		for i := 0; i < len(flat); i += 2 {
			day, id := flat[i], flat[i+1]
			if !simtime.Day(day).Valid() || id < 0 || id > cmps.Count {
				return fmt.Errorf("analysis: presence fold state: bad record [%d,%d] for %q", day, id, domain)
			}
			d.recs = append(d.recs, detect.Rec{Day: day, CMP: int8(id)})
		}
		domains[domain] = d
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.Total, f.MultiCMP = st.Total, st.MultiCMP
	f.domains = domains
	f.presence = make(map[string][]interp.Interval)
	return nil
}

// CoverageFold incrementally maintains the vantage-point tables
// (Tables 1/A.3 made continuous): per calendar month and
// vantage/configuration column, the set of domains where each CMP was
// first detected. The first *detected* capture of a (month, config,
// domain) triple wins, mirroring ComputeVantageTable's store-order
// sweep; captures without a detection never occupy a slot.
type CoverageFold struct {
	// months[month][configKey][domain] = first detected CMP.
	months map[simtime.Day]map[string]map[string]cmps.ID
	// keys holds ConfigKeyOf's key per (vantage, config), so a column
	// already seen costs no allocation.
	keys map[[2]string]string
}

// NewCoverageFold returns an empty coverage fold.
func NewCoverageFold() *CoverageFold {
	return &CoverageFold{
		months: make(map[simtime.Day]map[string]map[string]cmps.ID),
		keys:   make(map[[2]string]string),
	}
}

// FoldRows advances the state by a batch of rows.
func (f *CoverageFold) FoldRows(rows []Row) {
	for i := range rows {
		f.fold(&rows[i])
	}
}

// fold advances the state by one row: a detected row takes its
// (month, column, domain) slot unless an earlier one holds it.
func (f *CoverageFold) fold(r *Row) {
	if !r.Folded() || r.CMP == cmps.None {
		return
	}
	month := r.Day.Month()
	key, ok := f.keys[[2]string{r.Vantage, r.Config}]
	if !ok {
		key = r.Vantage + "/" + r.Config
		f.keys[[2]string{r.Vantage, r.Config}] = key
	}
	configs := f.months[month]
	if configs == nil {
		configs = make(map[string]map[string]cmps.ID)
		f.months[month] = configs
	}
	domains := configs[key]
	if domains == nil {
		domains = make(map[string]cmps.ID)
		configs[key] = domains
	}
	if _, dup := domains[r.Domain]; !dup {
		domains[r.Domain] = r.CMP
	}
}

// Months returns the folded months in ascending order.
func (f *CoverageFold) Months() []simtime.Day {
	out := make([]simtime.Day, 0, len(f.months))
	for m := range f.months {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tableOf tallies one month's per-config domain sets into a
// VantageTable (Configs sorted lexicographically — the store-driven
// tables list whatever columns the stream contained).
func tableOf(configs map[string]map[string]cmps.ID) *VantageTable {
	var keys []string
	for key := range configs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return tally(keys, configs)
}

// MonthTable snapshots one month's vantage table.
func (f *CoverageFold) MonthTable(month simtime.Day) *VantageTable {
	return tableOf(f.months[month])
}

// Cumulative snapshots the whole-window vantage table: per config,
// domains merge across months in ascending month order with the
// earliest month's detection winning — i.e. each domain counts once,
// under the CMP it was first detected with.
func (f *CoverageFold) Cumulative() *VantageTable {
	merged := make(map[string]map[string]cmps.ID)
	for _, month := range f.Months() {
		for key, domains := range f.months[month] {
			dst := merged[key]
			if dst == nil {
				dst = make(map[string]cmps.ID)
				merged[key] = dst
			}
			for domain, id := range domains {
				if _, dup := dst[domain]; !dup {
					dst[domain] = id
				}
			}
		}
	}
	return tableOf(merged)
}

// coverageFoldState is the checkpoint wire form of a CoverageFold.
// Month keys and config keys are JSON object keys; domain → CMP maps
// flatten to parallel arrays would save little, so they stay maps.
type coverageFoldState struct {
	Months map[string]map[string]map[string]int `json:"months"`
}

// MarshalState serializes the fold for checkpointing.
func (f *CoverageFold) MarshalState() ([]byte, error) {
	st := coverageFoldState{Months: make(map[string]map[string]map[string]int, len(f.months))}
	for month, configs := range f.months {
		mc := make(map[string]map[string]int, len(configs))
		for key, domains := range configs {
			md := make(map[string]int, len(domains))
			for domain, id := range domains {
				md[domain] = int(id)
			}
			mc[key] = md
		}
		st.Months[strconv.Itoa(int(month))] = mc
	}
	return json.Marshal(st)
}

// UnmarshalState restores a checkpointed fold. A month key must be
// the canonical decimal first day of a month inside the observation
// window (so no two keys name one month), and every CMP one of
// 1..cmps.Count (a slot only ever holds a detection); anything else is
// rejected and leaves the fold untouched.
func (f *CoverageFold) UnmarshalState(b []byte) error {
	var st coverageFoldState
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("analysis: coverage fold state: %w", err)
	}
	months := make(map[simtime.Day]map[string]map[string]cmps.ID, len(st.Months))
	for monthStr, configs := range st.Months {
		m, err := strconv.Atoi(monthStr)
		month := simtime.Day(m)
		if err != nil || strconv.Itoa(m) != monthStr || !month.Valid() || month.Month() != month {
			return fmt.Errorf("analysis: coverage fold state: bad month %q", monthStr)
		}
		mc := make(map[string]map[string]cmps.ID, len(configs))
		for key, domains := range configs {
			md := make(map[string]cmps.ID, len(domains))
			for domain, id := range domains {
				if id < 1 || id > cmps.Count {
					return fmt.Errorf("analysis: coverage fold state: bad CMP %d for %q", id, domain)
				}
				md[domain] = cmps.ID(id)
			}
			mc[key] = md
		}
		months[month] = mc
	}
	f.months = months
	return nil
}
