package analysis

import (
	"repro/internal/capture"
	"repro/internal/detect"
	"repro/internal/webworld"
)

// MissingData reproduces the Section 3.5 "Missing Data" breakdown: of
// the toplist domains never shared on social media, how many were
// unreachable, returned no valid response, returned an HTTP error,
// redirected elsewhere, or are internet infrastructure.
type MissingData struct {
	ToplistSize int
	// NeverShared is the number of toplist domains that never appear
	// in the social feed (1076 of the Tranco 10k in the paper).
	NeverShared int
	// Breakdown of the never-shared domains:
	Unreachable        int // 315 in the paper
	NoValidResponse    int // 4
	HTTPError          int // 70
	RedirectedElswhere int // 192, counted as the redirect target
	Infrastructure     int // >90% of the remainder
	Other              int
}

// ComputeMissingData classifies toplist domains against the world's
// ground truth and the social-feed observation set.
func ComputeMissingData(w *webworld.World, toplistDomains []string, observed func(domain string) bool) *MissingData {
	md := &MissingData{ToplistSize: len(toplistDomains)}
	for _, name := range toplistDomains {
		d := w.Domain(name)
		if d == nil {
			continue
		}
		if observed(name) {
			continue
		}
		md.NeverShared++
		switch {
		case d.Unreachable:
			md.Unreachable++
		case d.NoValidResponse:
			md.NoValidResponse++
		case d.HTTPError:
			md.HTTPError++
		case d.RedirectTo != "":
			md.RedirectedElswhere++
		case d.Infrastructure:
			md.Infrastructure++
		default:
			md.Other++
		}
	}
	return md
}

// TimeoutLoss quantifies the Section 3.5 "Crawler Timeouts" effect by
// comparing a campaign's default-timing and extended-timeout university
// columns: the fraction of CMP websites only visible with relaxed
// timeouts (~2%).
func TimeoutLoss(caps []*capture.Capture, det *detect.Detector) float64 {
	t := ComputeVantageTable(caps, det)
	def := t.Totals[EUUniversityDefaultKey()]
	ext := t.Totals[EUUniversityExtendedKey()]
	if ext == 0 {
		return 0
	}
	return 1 - float64(def)/float64(ext)
}
