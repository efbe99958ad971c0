package decision

import (
	"fmt"

	"repro/internal/gvl"
	"repro/internal/tcf"
)

// The naive reference path: decode the string with the batch codec on
// every call and answer from the original map representation, reading
// legal-basis declarations straight off the JSON-shaped vendor list.
// This is what a decision cost before this package existed, and it is
// the ground truth the compiled kernel is differentially tested
// against — over the fuzz corpus and the generated population, Decide
// and NaiveDecide must agree on every (string, vendor, purpose).

// NaiveDecide re-decodes raw and answers with map lookups. l is the
// source vendor list for the string's stamped version (nil skips the
// declaration check, mirroring Decide with a nil table).
func NaiveDecide(raw string, l *gvl.ListV2, vendor, purpose int) (Basis, error) {
	c, err := naiveParse(raw)
	if err != nil {
		return BasisNone, err
	}
	return naiveDecideV2(c, l, vendor, purpose), nil
}

// naiveParse is NaiveDecide's decode half: the batch codec for the
// string's version, v1 strings through the codec's own v2 migration.
func naiveParse(raw string) (*tcf.V2ConsentString, error) {
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
		// The kernel serves v1 strings through their v2 upgrade; the
		// reference path uses the codec's own migration.
		return tcf.UpgradeToV2(c), nil
	case tcf.V2Version:
		return tcf.DecodeV2(raw)
	default:
		return nil, fmt.Errorf("decision: unsupported consent string version %d", version)
	}
}

// naiveDecideV2 is NaiveDecide's evaluation half: the answer for one
// question, read straight off the decoded string and the list.
func naiveDecideV2(c *tcf.V2ConsentString, l *gvl.ListV2, vendor, purpose int) Basis {
	if vendor <= 0 || purpose < 1 || purpose > NumPurposeBits {
		return BasisNone
	}
	var notAllowed, requireConsent, requireLI bool
	for _, pr := range c.PubRestrictions {
		if pr.Purpose != purpose || !containsVendor(pr.VendorIDs, vendor) {
			continue
		}
		switch pr.Type {
		case tcf.RestrictionNotAllowed:
			notAllowed = true
		case tcf.RestrictionRequireConsent:
			requireConsent = true
		case tcf.RestrictionRequireLegInt:
			requireLI = true
		}
	}
	if notAllowed {
		return BasisNone
	}

	purposeConsent := c.PurposesConsent[purpose]
	if purpose == 1 && c.PurposeOneTreatment {
		purposeConsent = true
	}
	consentOK := purposeConsent && vendor <= c.MaxVendorID && c.VendorConsent[vendor]
	liOK := c.PurposesLITransparency[purpose] && vendor <= c.MaxVendorLIID && c.VendorLegInt[vendor]

	if l != nil {
		v := l.Vendor(vendor)
		if v == nil {
			return BasisNone
		}
		declC := v.DeclaresConsent(purpose)
		declLI := v.DeclaresLegInt(purpose)
		flex := v.DeclaresFlexible(purpose)
		canConsent := declC || (declLI && flex && requireConsent)
		canLI := declLI || (declC && flex && requireLI)
		consentOK = consentOK && canConsent
		liOK = liOK && canLI
	}
	if requireConsent {
		liOK = false
	}
	if requireLI {
		consentOK = false
	}

	if consentOK {
		return BasisConsent
	}
	if liOK {
		return BasisLegInt
	}
	return BasisNone
}

func containsVendor(ids []int, v int) bool {
	for _, id := range ids {
		if id == v {
			return true
		}
	}
	return false
}
