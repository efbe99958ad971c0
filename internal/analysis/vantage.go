package analysis

import (
	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/crawler"
	"repro/internal/detect"
)

// VantageTable is the Table 1 / Table A.3 structure: occurrence of
// CMPs on toplist websites measured from different vantage points and
// browser configurations.
type VantageTable struct {
	// Configs are the column keys in Table 1 order (see
	// crawler.ToplistConfigs).
	Configs []string
	// Counts[cmp][config] is the number of toplist websites where the
	// CMP was detected under that configuration.
	Counts map[cmps.ID]map[string]int
	// Totals[config] is the Σ row.
	Totals map[string]int
	// Coverage[config] = Totals[config] / max over configs.
	Coverage map[string]float64
}

// ComputeVantageTable buckets a campaign's captures by configuration
// (ConfigKeyOf), classifies each with the detector and tallies distinct
// websites (by final registrable domain) per CMP. Columns follow
// crawler.ToplistConfigs order; within a column the first detected
// capture of a domain, in campaign order, decides its CMP.
func ComputeVantageTable(caps []*capture.Capture, det *detect.Detector) *VantageTable {
	var configs []string
	firstSeen := make(map[string]map[string]cmps.ID)
	for _, tc := range crawler.ToplistConfigs() {
		key := crawler.ConfigKey(tc)
		configs = append(configs, key)
		firstSeen[key] = make(map[string]cmps.ID)
	}
	for _, c := range caps {
		seen, ok := firstSeen[ConfigKeyOf(c)]
		if !ok || c.Failed {
			continue
		}
		if id := det.DetectOne(c); id != cmps.None {
			if _, dup := seen[c.FinalDomain]; !dup {
				seen[c.FinalDomain] = id
			}
		}
	}
	return tally(configs, firstSeen)
}

// tally builds the table with columns in configs order from each
// column's domain → first detected CMP map: per-CMP counts, the Σ row
// and coverage against the best column. It is the one tally behind
// Table 1 and the coverage fold's monthly and cumulative views.
func tally(configs []string, firstSeen map[string]map[string]cmps.ID) *VantageTable {
	t := &VantageTable{
		Configs:  configs,
		Counts:   make(map[cmps.ID]map[string]int),
		Totals:   make(map[string]int),
		Coverage: make(map[string]float64),
	}
	for _, c := range cmps.All() {
		t.Counts[c] = make(map[string]int)
	}
	for _, key := range configs {
		for _, id := range firstSeen[key] {
			t.Counts[id][key]++
			t.Totals[key]++
		}
	}
	max := 0
	for _, total := range t.Totals {
		if total > max {
			max = total
		}
	}
	for key, total := range t.Totals {
		if max > 0 {
			t.Coverage[key] = float64(total) / float64(max)
		}
	}
	return t
}

// Count is a convenience accessor.
func (t *VantageTable) Count(c cmps.ID, configKey string) int {
	return t.Counts[c][configKey]
}

// USCloudKey / EUCloudKey / EUUniversityKeys name the standard columns.
func USCloudKey() string { return capture.USCloud.Name + "/default" }

// EUCloudKey returns the EU-cloud column key.
func EUCloudKey() string { return capture.EUCloud.Name + "/default" }

// EUUniversityDefaultKey returns the default-timing university column.
func EUUniversityDefaultKey() string { return capture.EUUniversity.Name + "/default" }

// EUUniversityExtendedKey returns the extended-timeout column.
func EUUniversityExtendedKey() string { return capture.EUUniversity.Name + "/extended-timeout" }
