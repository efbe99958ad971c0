// Package decision is the real-time consent-decision kernel: the
// serving-side counterpart of this repository's batch TCF analyses.
// Every ad auction must answer "does this TC string grant vendor N /
// purpose P, and under which legal basis?" at sub-millisecond latency
// — the pre-auction vendor-filtering pattern the TCF ecosystem runs at
// scale.
//
// The batch codec in internal/tcf stores vendors and purposes as
// map[int]bool, so a naive decision pays a full base64+bit decode plus
// map lookups and allocations per question. This package decodes a raw
// v1 or v2 string exactly once into a Compiled form — packed []uint64
// bitsets for vendor consent, vendor legitimate interest, purposes,
// purpose LI, special features and publisher TC — held in a sharded,
// bounded LRU keyed by the raw string. The steady-state decision path
// (Decide on a cache hit) is pure bit arithmetic: 0 allocs/op.
//
// Legal-basis resolution uses a pre-resolved vendor table per GVL
// version (see gvltable.go), built from internal/gvl history at
// startup, so checking what a vendor registered never touches maps or
// JSON at decision time.
//
// Correctness bar: for every string the fuzzer or the population
// generator produces, Decide over the Compiled form must agree
// bit-for-bit with NaiveDecide, which re-decodes via tcf.Decode /
// tcf.DecodeV2 and answers from the original map representation.
package decision

import (
	"fmt"

	"repro/internal/tcf"
)

// Basis is the outcome of a consent decision: whether the processing
// may happen, and under which GDPR legal basis.
type Basis uint8

const (
	// BasisNone: the vendor may not process for this purpose.
	BasisNone Basis = iota
	// BasisConsent: allowed, grounded in user consent (Art. 6(1)a).
	BasisConsent
	// BasisLegInt: allowed, grounded in legitimate interest with
	// established transparency (Art. 6(1)f).
	BasisLegInt
)

// Allowed reports whether the decision permits processing.
func (b Basis) Allowed() bool { return b != BasisNone }

func (b Basis) String() string {
	switch b {
	case BasisConsent:
		return "consent"
	case BasisLegInt:
		return "legitimate-interest"
	default:
		return "none"
	}
}

// NumPurposeBits is the width of the purpose fields on the wire; the
// kernel answers purposes 1..NumPurposeBits (10 are standardized).
const NumPurposeBits = 24

// bitset is a packed 1-based id set.
type bitset []uint64

// newBitset returns a bitset able to hold ids 1..max.
func newBitset(max int) bitset {
	if max <= 0 {
		return nil
	}
	return make(bitset, (max+63)/64)
}

// set marks a 1-based id; out-of-range ids are ignored.
func (b bitset) set(id int) {
	if id <= 0 {
		return
	}
	id--
	if w := id >> 6; w < len(b) {
		b[w] |= 1 << (uint(id) & 63)
	}
}

// test reports whether a 1-based id is present.
func (b bitset) test(id int) bool {
	if id <= 0 {
		return false
	}
	id--
	w := id >> 6
	return w < len(b) && b[w]>>(uint(id)&63)&1 == 1
}

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// packMap packs a 1-based map[int]bool into a bitset bounded by max.
func packMap(m map[int]bool, max int) bitset {
	b := newBitset(max)
	for id, ok := range m {
		if ok && id >= 1 && id <= max {
			b.set(id)
		}
	}
	return b
}

// packBits packs purposes 1..n of a map into a uint32 (bit p-1).
func packBits(m map[int]bool, n int) uint32 {
	var v uint32
	for p := 1; p <= n && p <= 32; p++ {
		if m[p] {
			v |= 1 << uint(p-1)
		}
	}
	return v
}

// restriction is one compiled publisher restriction: the vendors a
// restriction type applies to for one purpose. Restrictions are rare,
// so Decide scans a short slice instead of indexing by purpose.
type restriction struct {
	purpose uint8
	vendors bitset
}

// covers reports whether any restriction in rs hits (vendor, purpose).
func covers(rs []restriction, vendor, purpose int) bool {
	for i := range rs {
		if int(rs[i].purpose) == purpose && rs[i].vendors.test(vendor) {
			return true
		}
	}
	return false
}

// Compiled is the decision-ready form of one TC string: everything the
// kernel needs, packed so a decision is pure bit arithmetic. Compiled
// values are immutable after Compile and safe for concurrent use.
type Compiled struct {
	// Raw is the source string (the cache key).
	Raw string
	// WireVersion is the source wire format, 1 or 2. v1 strings are
	// compiled through their v2 upgrade (the IAB migration mapping),
	// so the kernel always operates in v2 purpose space.
	WireVersion int
	// VendorListVersion stamps which GVL the string was written under.
	VendorListVersion int
	// PurposeOneTreatment: purpose 1 is handled by local law; the
	// kernel treats the purpose-1 consent signal as granted (vendor
	// consent is still required).
	PurposeOneTreatment bool
	// MaxVendorID / MaxVendorLIID bound the vendor sections.
	MaxVendorID   int
	MaxVendorLIID int

	purposes        uint32 // purpose consent, bit p-1
	purposesLI      uint32 // purpose LI transparency
	specialFeatures uint32 // special-feature opt-ins
	pubPurposes     uint32 // publisher-TC purposes consent
	pubPurposesLI   uint32 // publisher-TC purposes LI
	hasPublisherTC  bool

	vendorConsent bitset
	vendorLI      bitset
	disclosed     bitset

	restrictNA []restriction // RestrictionNotAllowed
	restrictRC []restriction // RestrictionRequireConsent
	restrictRL []restriction // RestrictionRequireLegInt
}

// PurposeConsent reports the string's consent signal for a purpose
// (before restriction or GVL resolution), including the purpose-one
// treatment.
func (c *Compiled) PurposeConsent(p int) bool {
	if p < 1 || p > NumPurposeBits {
		return false
	}
	if p == 1 && c.PurposeOneTreatment {
		return true
	}
	return c.purposes>>uint(p-1)&1 == 1
}

// PurposeLI reports the string's LI-transparency signal for a purpose.
func (c *Compiled) PurposeLI(p int) bool {
	if p < 1 || p > NumPurposeBits {
		return false
	}
	return c.purposesLI>>uint(p-1)&1 == 1
}

// VendorConsent reports per-vendor consent.
func (c *Compiled) VendorConsent(v int) bool { return c.vendorConsent.test(v) }

// VendorLI reports per-vendor legitimate-interest establishment.
func (c *Compiled) VendorLI(v int) bool { return c.vendorLI.test(v) }

// SpecialFeature reports the opt-in for a special feature.
func (c *Compiled) SpecialFeature(f int) bool {
	if f < 1 || f > 12 {
		return false
	}
	return c.specialFeatures>>uint(f-1)&1 == 1
}

// ConsentedVendors returns the number of vendors with consent.
func (c *Compiled) ConsentedVendors() int { return c.vendorConsent.count() }

// sixBits maps the first base64 character of a TC string to its
// sextet — the consent-string version field, which occupies exactly
// the first six wire bits. Both RawURL and padded URL alphabets share
// these characters.
func sixBits(ch byte) (int, bool) {
	switch {
	case ch >= 'A' && ch <= 'Z':
		return int(ch - 'A'), true
	case ch >= 'a' && ch <= 'z':
		return int(ch-'a') + 26, true
	case ch >= '0' && ch <= '9':
		return int(ch-'0') + 52, true
	case ch == '-' || ch == '+':
		return 62, true
	case ch == '_' || ch == '/':
		return 63, true
	}
	return 0, false
}

// Compile decodes a raw v1 or v2 consent string (auto-detected from
// the leading version sextet) into its decision-ready form. Compile is
// the slow path — it allocates freely; Decide over the result does
// not.
func Compile(raw string) (*Compiled, error) {
	if raw == "" {
		return nil, fmt.Errorf("decision: empty consent string")
	}
	version, ok := sixBits(raw[0])
	if !ok {
		return nil, fmt.Errorf("decision: %q is not a base64 consent string", raw[0])
	}
	switch version {
	case tcf.Version:
		c, err := tcf.Decode(raw)
		if err != nil {
			return nil, err
		}
		return compileV1(raw, c), nil
	case tcf.V2Version:
		c, err := tcf.DecodeV2(raw)
		if err != nil {
			return nil, err
		}
		return compileV2(raw, c), nil
	default:
		return nil, fmt.Errorf("decision: unsupported consent string version %d", version)
	}
}

// compileV1 compiles a v1 string through the IAB v1→v2 migration
// mapping (the same mapping tcf.UpgradeToV2 applies): purposes 1–5 map
// onto their v2 successors, vendor consent carries over, and
// legitimate interest stays empty — a v1 string cannot express it.
func compileV1(raw string, c *tcf.ConsentString) *Compiled {
	cp := &Compiled{
		Raw:               raw,
		WireVersion:       tcf.Version,
		VendorListVersion: c.VendorListVersion,
		MaxVendorID:       c.MaxVendorID,
	}
	// v1→v2 purpose mapping: storage/access → 1; personalisation →
	// profiles (3, 5); ad selection → 2, 4; content selection → 6;
	// measurement → 7, 8.
	mapping := [...][]int{1: {1}, 2: {3, 5}, 3: {2, 4}, 4: {6}, 5: {7, 8}}
	for p1 := 1; p1 <= tcf.NumPurposes; p1++ {
		if !c.PurposesAllowed[p1] {
			continue
		}
		for _, p2 := range mapping[p1] {
			cp.purposes |= 1 << uint(p2-1)
		}
	}
	cp.vendorConsent = packMap(c.VendorConsent, c.MaxVendorID)
	return cp
}

func compileV2(raw string, c *tcf.V2ConsentString) *Compiled {
	cp := &Compiled{
		Raw:                 raw,
		WireVersion:         tcf.V2Version,
		VendorListVersion:   c.VendorListVersion,
		PurposeOneTreatment: c.PurposeOneTreatment,
		MaxVendorID:         c.MaxVendorID,
		MaxVendorLIID:       c.MaxVendorLIID,
		purposes:            packBits(c.PurposesConsent, 24),
		purposesLI:          packBits(c.PurposesLITransparency, 24),
		specialFeatures:     packBits(c.SpecialFeatureOptIns, 12),
		hasPublisherTC:      c.HasPublisherTC,
		pubPurposes:         packBits(c.PubPurposesConsent, 24),
		pubPurposesLI:       packBits(c.PubPurposesLITransparency, 24),
		vendorConsent:       packMap(c.VendorConsent, c.MaxVendorID),
		vendorLI:            packMap(c.VendorLegInt, c.MaxVendorLIID),
	}
	if len(c.DisclosedVendors) > 0 {
		max := 0
		for id, ok := range c.DisclosedVendors {
			if ok && id > max {
				max = id
			}
		}
		cp.disclosed = packMap(c.DisclosedVendors, max)
	}
	for _, pr := range c.PubRestrictions {
		if pr.Purpose < 1 || pr.Purpose > NumPurposeBits || len(pr.VendorIDs) == 0 {
			// Restrictions outside the queryable purpose range can
			// never match a decision; NaiveDecide skips them the same
			// way.
			continue
		}
		max := 0
		for _, id := range pr.VendorIDs {
			if id > max {
				max = id
			}
		}
		r := restriction{purpose: uint8(pr.Purpose), vendors: newBitset(max)}
		for _, id := range pr.VendorIDs {
			r.vendors.set(id)
		}
		switch pr.Type {
		case tcf.RestrictionNotAllowed:
			cp.restrictNA = append(cp.restrictNA, r)
		case tcf.RestrictionRequireConsent:
			cp.restrictRC = append(cp.restrictRC, r)
		case tcf.RestrictionRequireLegInt:
			cp.restrictRL = append(cp.restrictRL, r)
		}
	}
	return cp
}
