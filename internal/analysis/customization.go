package analysis

import (
	"regexp"
	"strings"

	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/detect"
	"repro/internal/webworld"
)

// Publisher customization analysis (item I3, Section 4.1). "All
// reported statistics are based on our measurements from an EU
// university vantage point where we have the browser's DOM tree and
// full page screenshots available for inspection." The analysis
// scrapes the stored DOM of EU-university toplist captures.

// CustomizationStats summarizes one CMP's observed customizations.
type CustomizationStats struct {
	CMP cmps.ID
	// Websites is the number of toplist sites embedding the CMP.
	Websites int
	// Variants counts banner structures by variant name.
	Variants map[string]int
	// ConfirmRequired counts direct-reject banners that require
	// further clicks to confirm the opt-out.
	ConfirmRequired int
	// FooterTexts counts footer-link wordings.
	FooterTexts map[string]int
	// AffirmativeAccept / FreeformAccept split accept-button wording
	// ("I agree/consent/accept" variants vs. "Whatever"-style text).
	AffirmativeAccept int
	FreeformAccept    int
	// APIOnly counts publishers using the CMP's API with a fully
	// custom dialog.
	APIOnly int
}

// VariantShare returns a variant's share of the CMP's websites.
func (s *CustomizationStats) VariantShare(variant string) float64 {
	if s.Websites == 0 {
		return 0
	}
	return float64(s.Variants[variant]) / float64(s.Websites)
}

var (
	variantAttr = regexp.MustCompile(`data-variant="([^"]+)"`)
	confirmAttr = regexp.MustCompile(`data-confirm="?(true|false)"?`)
	footerLink  = regexp.MustCompile(`<footer><a href="/privacy">([^<]+)</a></footer>`)
	bannerText  = regexp.MustCompile(`>([^<>]+)</div>`)
)

// affirmative matches accept-button texts that qualify as affirmative
// consent wording.
var affirmative = regexp.MustCompile(`(?i)\b(agree|consent|accept)\b`)

// ComputeCustomization scrapes the DOM trees of EU-university captures
// and tallies customization per CMP; a domain counts once, by its first
// detected capture.
func ComputeCustomization(caps []*capture.Capture, det *detect.Detector) map[cmps.ID]*CustomizationStats {
	out := make(map[cmps.ID]*CustomizationStats, cmps.Count)
	for _, c := range cmps.All() {
		out[c] = &CustomizationStats{
			CMP:         c,
			Variants:    make(map[string]int),
			FooterTexts: make(map[string]int),
		}
	}
	seen := make(map[string]bool)
	for _, cap := range caps {
		if cap.Failed || seen[cap.FinalDomain] {
			continue
		}
		id := det.DetectOne(cap)
		if id == cmps.None {
			continue
		}
		seen[cap.FinalDomain] = true
		s := out[id]
		s.Websites++

		variant := "unknown"
		if m := variantAttr.FindStringSubmatch(cap.DOM); m != nil {
			variant = m[1]
		} else if m := footerLink.FindStringSubmatch(cap.DOM); m != nil {
			variant = webworld.VariantFooterLink.String()
			s.FooterTexts[m[1]]++
		}
		s.Variants[variant]++
		if variant == webworld.VariantCustomAPI.String() {
			s.APIOnly++
		}
		if m := confirmAttr.FindStringSubmatch(cap.DOM); m != nil && m[1] == "true" {
			s.ConfirmRequired++
		}
		if m := bannerText.FindStringSubmatch(cap.DOM); m != nil {
			text := strings.TrimSpace(m[1])
			if affirmative.MatchString(text) {
				s.AffirmativeAccept++
			} else if text != "" {
				s.FreeformAccept++
			}
		}
	}
	return out
}

// APIOnlyShare returns the overall share of CMP-embedding sites that
// use the CMP for its API only (~8% in the paper).
func APIOnlyShare(stats map[cmps.ID]*CustomizationStats) float64 {
	total, apiOnly := 0, 0
	for _, s := range stats {
		total += s.Websites
		apiOnly += s.APIOnly
	}
	if total == 0 {
		return 0
	}
	return float64(apiOnly) / float64(total)
}
