package decision

import (
	"fmt"
	"time"

	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/tcf"
)

// Synthetic consent-string populations for load-testing and
// differential testing. The mix follows what the measurement side of
// this repository observes in its webworld: accept-all strings
// dominate (most users click the highlighted button), reject-all is a
// sizeable minority, and a tail of partial grants carries every
// encoding feature the codec supports — v1 bitfield and range
// encodings, v2 legitimate-interest signals, special-feature opt-ins,
// publisher restrictions and publisher-TC segments. Identical seeds
// generate identical populations, so a load run against consentd can
// be re-validated offline against the naive path.

// The population's mix. v2Share is the fraction of TCF v2 strings, the
// rest are v1 (the 2020 migration-era mix); acceptAllShare and
// rejectAllShare split user decisions, the remainder being partial
// grants; maxVendorID bounds vendor sections (the GVL scale the paper
// observed); minVLV is the lowest stamped vendor-list version;
// restrictionShare and publisherTCShare are the fractions of v2
// strings carrying publisher restrictions and a publisher-TC segment.
const (
	v2Share          = 0.7
	acceptAllShare   = 0.55
	rejectAllShare   = 0.25
	maxVendorID      = 650
	minVLV           = 1
	restrictionShare = 0.08
	publisherTCShare = 0.15
)

// PopulationConfig parameterizes the generator.
type PopulationConfig struct {
	// Seed roots all draws.
	Seed uint64
	// Size is the number of strings (default 10_000).
	Size int
	// MaxVLV bounds the stamped vendor-list versions, which start at
	// 1 (default 215).
	MaxVLV int
}

func (c PopulationConfig) withDefaults() PopulationConfig {
	if c.Size <= 0 {
		c.Size = 10_000
	}
	if c.MaxVLV < minVLV {
		c.MaxVLV = 215
	}
	return c
}

// Population is a generated set of consent strings.
type Population struct {
	Strings []string
	Config  PopulationConfig
}

// GeneratePopulation builds a deterministic population.
func GeneratePopulation(cfg PopulationConfig) (*Population, error) {
	cfg = cfg.withDefaults()
	src := rng.New(cfg.Seed).Derive("decision-population")
	p := &Population{Strings: make([]string, 0, cfg.Size), Config: cfg}
	for i := 0; i < cfg.Size; i++ {
		s, err := generateString(src, cfg, i)
		if err != nil {
			return nil, fmt.Errorf("decision: population string %d: %w", i, err)
		}
		p.Strings = append(p.Strings, s)
	}
	return p, nil
}

func generateString(src *rng.Source, cfg PopulationConfig, i int) (string, error) {
	r := src.Stream("pop", rng.Key(i))
	created := simtime.Date(2020, time.January, 1).Time().Add(
		time.Duration(r.Intn(200*24)) * time.Hour)
	vlv := minVLV + r.Intn(cfg.MaxVLV-minVLV+1)
	maxVendor := 50 + r.Intn(maxVendorID-49)
	kindDraw := r.Float64()

	if r.Float64() >= v2Share {
		// TCF v1.1 string.
		c := tcf.New(created)
		c.CMPID = 1 + r.Intn(300)
		c.VendorListVersion = vlv
		switch {
		case kindDraw < acceptAllShare:
			c.SetAllPurposes(true)
			c.SetAllVendors(maxVendor, true)
		case kindDraw < acceptAllShare+rejectAllShare:
			c.MaxVendorID = maxVendor
		default:
			for p := 1; p <= tcf.NumPurposes; p++ {
				c.PurposesAllowed[p] = r.Float64() < 0.6
			}
			c.MaxVendorID = maxVendor
			density := 0.1 + 0.8*r.Float64()
			for v := 1; v <= maxVendor; v++ {
				if r.Float64() < density {
					c.VendorConsent[v] = true
				}
			}
		}
		// Exercise both vendor encodings explicitly; Encode alone
		// would always pick the smaller.
		if r.Float64() < 0.5 {
			return c.EncodeWith(tcf.EncodingBitField)
		}
		return c.EncodeWith(tcf.EncodingRange)
	}

	// TCF v2 string.
	c := tcf.NewV2(created)
	c.CMPID = 1 + r.Intn(300)
	c.VendorListVersion = vlv
	c.IsServiceSpecific = r.Float64() < 0.6
	c.PurposeOneTreatment = r.Float64() < 0.05
	c.MaxVendorID = maxVendor
	switch {
	case kindDraw < acceptAllShare:
		for p := 1; p <= tcf.NumPurposesV2; p++ {
			c.PurposesConsent[p] = true
		}
		for v := 1; v <= maxVendor; v++ {
			c.VendorConsent[v] = true
		}
		c.SpecialFeatureOptIns[1] = true
		c.SpecialFeatureOptIns[2] = true
	case kindDraw < acceptAllShare+rejectAllShare:
		// Reject-all still establishes LI transparency for a few
		// purposes — CMPs record the disclosure even on reject.
		for p := 2; p <= tcf.NumPurposesV2; p++ {
			c.PurposesLITransparency[p] = r.Float64() < 0.5
		}
	default:
		for p := 1; p <= tcf.NumPurposesV2; p++ {
			c.PurposesConsent[p] = r.Float64() < 0.6
			c.PurposesLITransparency[p] = r.Float64() < 0.35
		}
		density := 0.1 + 0.8*r.Float64()
		for v := 1; v <= maxVendor; v++ {
			if r.Float64() < density {
				c.VendorConsent[v] = true
			}
		}
		c.MaxVendorLIID = maxVendor
		liDensity := 0.5 * density
		for v := 1; v <= maxVendor; v++ {
			if r.Float64() < liDensity {
				c.VendorLegInt[v] = true
			}
		}
		c.SpecialFeatureOptIns[1] = r.Float64() < 0.4
	}
	if r.Float64() < restrictionShare {
		n := 1 + r.Intn(3)
		for j := 0; j < n; j++ {
			pr := tcf.PubRestriction{
				Purpose: 1 + r.Intn(tcf.NumPurposesV2),
				Type:    tcf.RestrictionType(r.Intn(3)),
			}
			for k := 0; k < 1+r.Intn(8); k++ {
				pr.VendorIDs = append(pr.VendorIDs, 1+r.Intn(maxVendor))
			}
			c.PubRestrictions = append(c.PubRestrictions, pr)
		}
	}
	if r.Float64() < publisherTCShare {
		c.HasPublisherTC = true
		for p := 1; p <= tcf.NumPurposesV2; p++ {
			c.PubPurposesConsent[p] = r.Float64() < 0.5
		}
	}
	return c.EncodeV2()
}
