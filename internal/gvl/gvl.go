// Package gvl implements the IAB Transparency and Consent Framework's
// Global Vendor List (GVL): the master list of advertisers participating
// in the framework. Vendors declare the purposes for which they request
// consent, the purposes they claim under legitimate interest, and the
// features they rely on (Section 2.2).
//
// The package provides the vendor-list.json data model, a deterministic
// generator for the 215-version history the paper downloaded from
// vendorlist.consensu.org, and the longitudinal diff engine behind
// Figures 7 and 8.
package gvl

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/tcf"
)

// Vendor is one advertiser on the Global Vendor List.
type Vendor struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	// PolicyURL links to the advertiser's privacy policy.
	PolicyURL string `json:"policyUrl"`
	// PurposeIDs are purposes for which the vendor requests consent.
	PurposeIDs []int `json:"purposeIds"`
	// LegIntPurposeIDs are purposes the vendor claims under legitimate
	// interest, allowing processing without user consent (GDPR Art. 6.1b-f).
	LegIntPurposeIDs []int `json:"legIntPurposeIds"`
	// FeatureIDs are the features the vendor relies upon.
	FeatureIDs []int `json:"featureIds"`
}

// RequestsConsent reports whether the vendor requests consent for the
// purpose.
func (v *Vendor) RequestsConsent(purpose int) bool { return containsInt(v.PurposeIDs, purpose) }

// ClaimsLegitimateInterest reports whether the vendor claims the
// purpose as a legitimate interest.
func (v *Vendor) ClaimsLegitimateInterest(purpose int) bool {
	return containsInt(v.LegIntPurposeIDs, purpose)
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// purposeJSON / featureJSON mirror the standardized definitions block
// of vendor-list.json.
type purposeJSON struct {
	ID          int    `json:"id"`
	Name        string `json:"name"`
	Description string `json:"description"`
}

// List is one published version of the Global Vendor List, matching the
// schema served at vendorlist.consensu.org/vXXX/vendor-list.json.
type List struct {
	VendorListVersion int       `json:"vendorListVersion"`
	LastUpdated       time.Time `json:"lastUpdated"`
	Vendors           []Vendor  `json:"vendors"`
}

// listJSON is the full wire schema including the static definitions.
type listJSON struct {
	VendorListVersion int           `json:"vendorListVersion"`
	LastUpdated       string        `json:"lastUpdated"`
	Purposes          []purposeJSON `json:"purposes"`
	Features          []purposeJSON `json:"features"`
	Vendors           []Vendor      `json:"vendors"`
}

// MarshalJSON serializes the list in the consensu.org wire format,
// embedding the standardized purpose and feature definitions.
func (l *List) MarshalJSON() ([]byte, error) {
	out := listJSON{
		VendorListVersion: l.VendorListVersion,
		LastUpdated:       l.LastUpdated.UTC().Format(time.RFC3339),
		Vendors:           l.Vendors,
	}
	for _, p := range tcf.Purposes() {
		out.Purposes = append(out.Purposes, purposeJSON{p.ID, p.Name, p.Definition})
	}
	for _, f := range tcf.Features() {
		out.Features = append(out.Features, purposeJSON{f.ID, f.Name, f.Definition})
	}
	return json.Marshal(out)
}

// UnmarshalJSON parses the consensu.org wire format.
func (l *List) UnmarshalJSON(data []byte) error {
	var in listJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	t, err := time.Parse(time.RFC3339, in.LastUpdated)
	if err != nil {
		return fmt.Errorf("gvl: lastUpdated: %w", err)
	}
	l.VendorListVersion = in.VendorListVersion
	l.LastUpdated = t
	l.Vendors = in.Vendors
	return nil
}

// Vendor returns the vendor with the given ID, or nil.
func (l *List) Vendor(id int) *Vendor {
	for i := range l.Vendors {
		if l.Vendors[i].ID == id {
			return &l.Vendors[i]
		}
	}
	return nil
}

// MaxVendorID returns the highest vendor ID on the list (the TCF
// consent string's MaxVendorId field).
func (l *List) MaxVendorID() int {
	max := 0
	for i := range l.Vendors {
		if l.Vendors[i].ID > max {
			max = l.Vendors[i].ID
		}
	}
	return max
}

// PurposeCounts tallies, per purpose ID, how many vendors request
// consent and how many claim legitimate interest. This is the
// per-version datum behind Figure 7.
func (l *List) PurposeCounts() (consent, legInt map[int]int) {
	consent = make(map[int]int, tcf.NumPurposes)
	legInt = make(map[int]int, tcf.NumPurposes)
	for i := range l.Vendors {
		for _, p := range l.Vendors[i].PurposeIDs {
			consent[p]++
		}
		for _, p := range l.Vendors[i].LegIntPurposeIDs {
			legInt[p]++
		}
	}
	return consent, legInt
}
