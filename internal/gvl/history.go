package gvl

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/rng"
	"repro/internal/simtime"
)

// The paper systematically downloaded all 215 previously published
// versions of the GVL (Section 3.4). This file generates a synthetic
// 215-version history with the dynamics the paper reports:
//
//   - vendor count grows over time with a sharp spike as GDPR came into
//     effect (Figure 7);
//   - purpose 1 ("Information storage and access") is always the most
//     declared purpose;
//   - at least a fifth of vendors claim legitimate interest for every
//     purpose (Section 5.2);
//   - on net, more vendors switch from legitimate interest to consent
//     than the other way round (Figure 8), with change activity peaking
//     around GDPR and again in March–April 2020.

// HistoryConfig parameterizes the generator.
type HistoryConfig struct {
	// Seed roots all randomness; identical seeds give identical
	// histories.
	Seed uint64
	// Versions is the number of list versions to publish. The paper
	// observed 215.
	Versions int
	// InitialVendors is the list size at the first version.
	InitialVendors int
	// PeakVendors caps the long-run vendor count.
	PeakVendors int
}

// DefaultHistoryConfig mirrors the observed GVL at the paper's scale.
func DefaultHistoryConfig() HistoryConfig {
	return HistoryConfig{
		Seed:           1,
		Versions:       215,
		InitialVendors: 150,
		PeakVendors:    650,
	}
}

// History is an ordered sequence of published GVL versions.
type History struct {
	Versions []List
}

// consentProb is the probability a new vendor requests consent for a
// purpose; legIntGivenNoConsent is the probability a vendor claims the
// purpose under legitimate interest instead, given it does not request
// consent. Purpose 1 is the most requested; every purpose ends with a
// ≥20% legitimate-interest share (Section 5.2).
var (
	consentProb          = map[int]float64{1: 0.78, 2: 0.62, 3: 0.66, 4: 0.50, 5: 0.58}
	legIntGivenNoConsent = map[int]float64{1: 0.95, 2: 0.70, 3: 0.88, 4: 0.55, 5: 0.80}
	featureProb          = map[int]float64{1: 0.35, 2: 0.45, 3: 0.25}
)

// targetVendorCount is the calibrated vendor-count curve: rapid growth
// into GDPR, a post-GDPR plateau, then slow growth (Figure 7's shape).
func targetVendorCount(cfg HistoryConfig, day simtime.Day) int {
	gdpr := float64(simtime.GDPREffective)
	d := float64(day)
	span := float64(cfg.PeakVendors - cfg.InitialVendors)
	// Logistic ramp centred shortly before GDPR plus a slow linear tail.
	ramp := 1 / (1 + math.Exp(-(d-(gdpr-10))/12))
	tail := math.Max(0, d-gdpr) * 0.09
	n := float64(cfg.InitialVendors) + span*0.85*ramp + tail
	if n > float64(cfg.PeakVendors) {
		n = float64(cfg.PeakVendors)
	}
	return int(n)
}

// changeActivity scales the per-version probability that an existing
// vendor alters its declarations. Peaks around GDPR and March–April
// 2020 ("possibly as vendors saw how GDPR was being enforced").
func changeActivity(day simtime.Day) float64 {
	base := 0.004
	base += bump(float64(day), float64(simtime.GDPREffective), 25, 0.045)
	base += bump(float64(day), float64(simtime.Date(2020, time.March, 20)), 30, 0.030)
	return base
}

// bump is a Gaussian activity bump of the given width and height.
func bump(x, center, width, height float64) float64 {
	d := (x - center) / width
	return height * math.Exp(-d*d/2)
}

// GenerateHistory produces the full version history.
func GenerateHistory(cfg HistoryConfig) *History {
	if cfg.Versions <= 0 {
		cfg.Versions = DefaultHistoryConfig().Versions
	}
	if cfg.InitialVendors <= 0 {
		cfg.InitialVendors = DefaultHistoryConfig().InitialVendors
	}
	if cfg.PeakVendors < cfg.InitialVendors {
		cfg.PeakVendors = cfg.InitialVendors
	}
	src := rng.New(cfg.Seed).Derive("gvl")

	h := &History{}
	nextID := 1
	var vendors []Vendor

	newVendor := func(version int) Vendor {
		id := nextID
		nextID++
		r := src.Stream("vendor", rng.Key(id))
		v := Vendor{
			ID:        id,
			Name:      fmt.Sprintf("AdVendor %d Ltd", id),
			PolicyURL: fmt.Sprintf("https://vendor%d.example/privacy", id),
		}
		for p := 1; p <= 5; p++ {
			if r.Float64() < consentProb[p] {
				v.PurposeIDs = append(v.PurposeIDs, p)
			} else if r.Float64() < legIntGivenNoConsent[p] {
				// Vendors that do not request consent for a purpose
				// often claim it under legitimate interest instead,
				// allowing processing without user consent.
				v.LegIntPurposeIDs = append(v.LegIntPurposeIDs, p)
			}
		}
		for f := 1; f <= 3; f++ {
			if r.Float64() < featureProb[f] {
				v.FeatureIDs = append(v.FeatureIDs, f)
			}
		}
		_ = version
		return v
	}

	// Seed the initial list.
	for len(vendors) < cfg.InitialVendors {
		vendors = append(vendors, newVendor(1))
	}

	// Publication cadence: the GVL moved to weekly updates; we publish
	// every 3–4 days early on, weekly later, totalling cfg.Versions
	// versions spanning April 2018 to roughly May 2020.
	day := simtime.Date(2018, time.April, 5)
	for version := 1; version <= cfg.Versions; version++ {
		// Vendor joins/leaves to track the target curve, plus churn.
		target := targetVendorCount(cfg, day)
		vr := src.Stream("version", rng.Key(version))

		// Churn: a small number of vendors leave each version.
		leaves := 0
		if len(vendors) > 20 {
			leaves = poissonish(vr.Float64(), 0.4)
		}
		for i := 0; i < leaves && len(vendors) > 1; i++ {
			idx := vr.Intn(len(vendors))
			vendors = append(vendors[:idx], vendors[idx+1:]...)
		}
		for len(vendors) < target {
			vendors = append(vendors, newVendor(version))
		}

		// Existing-member changes (Figure 8 flows).
		act := changeActivity(day)
		for i := range vendors {
			r := vr
			if r.Float64() >= act {
				continue
			}
			mutateVendor(&vendors[i], r.Float64(), r.Intn(5)+1)
		}

		// The working set is in ascending ID order (vendors join with
		// the next ID and leave without reordering) and its slices are
		// sorted and never written in place (mutateVendor), so a
		// published version shares them with it and with every other
		// version.
		h.Versions = append(h.Versions, List{
			VendorListVersion: version,
			LastUpdated:       day.Time(),
			Vendors:           append([]Vendor(nil), vendors...),
		})

		// Advance the publication date: a 3–4 day cadence places 215
		// versions between April 2018 and spring 2020, matching the
		// history the paper downloaded ("the organization managing the
		// GVL switched to weekly updates" only late in the window).
		day += simtime.Day(3 + version%2)
	}
	return h
}

// mutateVendor applies one declaration change. Each change kind picks
// its purpose among the eligible ones, so the mutation mix directly
// controls the flow rates; the mix is calibrated so LI→consent
// outnumbers consent→LI (Figure 8's headline result). Every change
// replaces a slice with a fresh sorted one (removeInt, insertInt):
// published versions share the old one.
func mutateVendor(v *Vendor, u float64, purposeSeed int) {
	// pick selects a purpose from the eligible set, seeded by
	// purposeSeed for determinism.
	pick := func(eligible func(int) bool) (int, bool) {
		for off := 0; off < 5; off++ {
			p := (purposeSeed+off)%5 + 1
			if eligible(p) {
				return p, true
			}
		}
		return 0, false
	}
	switch {
	case u < 0.34: // switch legitimate interest -> consent
		if p, ok := pick(func(p int) bool { return v.ClaimsLegitimateInterest(p) && !v.RequestsConsent(p) }); ok {
			v.LegIntPurposeIDs = removeInt(v.LegIntPurposeIDs, p)
			v.PurposeIDs = insertInt(v.PurposeIDs, p)
		}
	case u < 0.52: // switch consent -> legitimate interest
		if p, ok := pick(func(p int) bool { return v.RequestsConsent(p) && !v.ClaimsLegitimateInterest(p) }); ok {
			v.PurposeIDs = removeInt(v.PurposeIDs, p)
			v.LegIntPurposeIDs = insertInt(v.LegIntPurposeIDs, p)
		}
	case u < 0.74: // begin requesting consent for a new purpose
		if p, ok := pick(func(p int) bool { return !v.RequestsConsent(p) }); ok {
			v.PurposeIDs = insertInt(v.PurposeIDs, p)
		}
	case u < 0.86: // claim a new purpose under legitimate interest
		if p, ok := pick(func(p int) bool { return !v.ClaimsLegitimateInterest(p) && !v.RequestsConsent(p) }); ok {
			v.LegIntPurposeIDs = insertInt(v.LegIntPurposeIDs, p)
		}
	case u < 0.93: // stop requesting consent
		if p, ok := pick(v.RequestsConsent); ok {
			v.PurposeIDs = removeInt(v.PurposeIDs, p)
		}
	default: // stop claiming legitimate interest
		if p, ok := pick(v.ClaimsLegitimateInterest); ok {
			v.LegIntPurposeIDs = removeInt(v.LegIntPurposeIDs, p)
		}
	}
}

// removeInt returns a fresh slice of xs without x, nil when nothing
// is left (an empty declaration publishes as null). It never writes
// into xs, which published versions may share.
func removeInt(xs []int, x int) []int {
	var out []int
	for _, v := range xs {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}

// insertInt returns a fresh sorted slice of the sorted xs plus x. It
// never writes into xs, which published versions may share.
func insertInt(xs []int, x int) []int {
	i := sort.SearchInts(xs, x)
	out := make([]int, len(xs)+1)
	copy(out, xs[:i])
	out[i] = x
	copy(out[i+1:], xs[i:])
	return out
}

// poissonish maps a uniform draw to a small non-negative count with the
// given mean; adequate for churn event counts.
func poissonish(u, mean float64) int {
	switch {
	case u < math.Exp(-mean):
		return 0
	case u < math.Exp(-mean)*(1+mean):
		return 1
	case u < 0.97:
		return 2
	default:
		return 3
	}
}
