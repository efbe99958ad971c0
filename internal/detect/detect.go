// Package detect implements the paper's CMP detection methodology
// (Section 3.2): fingerprints of varying specificity built from HTTP
// request patterns, CSS selectors, and extracted text. The robust
// primary indicator is a unique hostname per consent-dialog framework
// (Table A.2) — e.g. all OneTrust deployments request
// cdn.cookielaw.org on page load regardless of dialog design. Network
// patterns detect CMPs even when no dialog is triggered (e.g. visiting
// an EU-centric website from the US).
package detect

import (
	"strings"

	"repro/internal/capture"
	"repro/internal/cmps"
)

// Fingerprint is one detection rule for a CMP. Rules have varying
// specificity; the hostname rules are the synthesized robust
// indicators of Table A.2.
type Fingerprint struct {
	CMP cmps.ID
	// Hostname matches a logged request host exactly.
	Hostname string
	// CSSSelector matches a class name in the stored DOM (toplist
	// crawls only).
	CSSSelector string
}

// Fingerprints returns the detection rules for the six studied CMPs.
func Fingerprints() []Fingerprint {
	css := map[cmps.ID]string{
		cmps.OneTrust:  "onetrust-banner-sdk",
		cmps.Quantcast: "qc-cmp-ui",
		cmps.TrustArc:  "truste_overlay",
		cmps.Cookiebot: "CybotCookiebotDialog",
		cmps.LiveRamp:  "faktor-cmp",
		cmps.Crownpeak: "evidon-banner",
	}
	fps := make([]Fingerprint, 0, cmps.Count)
	for _, c := range cmps.All() {
		fps = append(fps, Fingerprint{CMP: c, Hostname: c.Hostname(), CSSSelector: css[c]})
	}
	return fps
}

// Detector classifies captures.
type Detector struct {
	byHost map[string]cmps.ID
	byCSS  map[string]cmps.ID
	m      *Metrics // nil = telemetry off; see SetMetrics
}

// New builds a detector from the given fingerprints; pass
// Fingerprints() for the paper's rules.
func New(fps []Fingerprint) *Detector {
	d := &Detector{
		byHost: make(map[string]cmps.ID, len(fps)),
		byCSS:  make(map[string]cmps.ID, len(fps)),
	}
	for _, fp := range fps {
		if fp.Hostname != "" {
			d.byHost[fp.Hostname] = fp.CMP
		}
		if fp.CSSSelector != "" {
			d.byCSS[fp.CSSSelector] = fp.CMP
		}
	}
	return d
}

// Default returns a detector with the Table A.2 rules.
func Default() *Detector { return New(Fingerprints()) }

// Detect returns the CMPs whose network fingerprints match the
// capture, in first-request order. More than one CMP on a page is an
// overcount the paper quantifies at 0.01% of captures. The no-match
// path performs no allocations; a match allocates only the result
// slice (dedup is tracked in a bitmask, not a map).
func (d *Detector) Detect(c *capture.Capture) []cmps.ID {
	var seen uint32
	var out []cmps.ID
	for _, r := range c.Requests {
		if id, ok := d.byHost[r.Host]; ok && seen&(1<<uint(id)) == 0 {
			seen |= 1 << uint(id)
			out = append(out, id)
		}
	}
	if len(out) > 0 {
		d.m.masked(out[0], seen)
	} else {
		d.m.one(cmps.None)
	}
	return out
}

// DetectMask classifies the capture without allocating: it returns the
// first matching CMP in request order (cmps.None when nothing matches)
// and a bitmask with bit i set iff cmps.ID(i) matched. It is the
// hot-path entry point for streaming sinks that record millions of
// captures.
func (d *Detector) DetectMask(c *capture.Capture) (first cmps.ID, mask uint32) {
	for _, r := range c.Requests {
		if id, ok := d.byHost[r.Host]; ok {
			if mask == 0 {
				first = id
			}
			mask |= 1 << uint(id)
		}
	}
	d.m.masked(first, mask)
	return first, mask
}

// DetectHosts is DetectMask over a record's request hosts as the
// capture store's key scan yields them (capturedb.Keys.Hosts): distinct
// hosts in first-request order, so the first match and the mask are
// the ones DetectMask finds over the requests they came from. It
// allocates nothing; a stored record is classified from its keys,
// without decoding it.
func (d *Detector) DetectHosts(hosts [][]byte) (first cmps.ID, mask uint32) {
	for _, h := range hosts {
		if id, ok := d.byHost[string(h)]; ok {
			if mask == 0 {
				first = id
			}
			mask |= 1 << uint(id)
		}
	}
	d.m.masked(first, mask)
	return first, mask
}

// DetectOne returns the single detected CMP, or cmps.None. When
// multiple match (0.01% of captures), the first in request order wins.
func (d *Detector) DetectOne(c *capture.Capture) cmps.ID {
	for _, r := range c.Requests {
		if id, ok := d.byHost[r.Host]; ok {
			d.m.one(id)
			return id
		}
	}
	d.m.one(cmps.None)
	return cmps.None
}

// DetectDOM classifies via CSS-selector fingerprints on the stored DOM
// tree. The paper found DOM parsing "much more unreliable" than
// network patterns — it fails whenever the site's configuration does
// not render a dialog; the ablation bench quantifies this.
func (d *Detector) DetectDOM(c *capture.Capture) cmps.ID {
	if c.DOM == "" {
		return cmps.None
	}
	for sel, id := range d.byCSS {
		if strings.Contains(c.DOM, sel) {
			return id
		}
	}
	return cmps.None
}

// gdprPhrases are consent-prompt phrases from Degeling et al. (NDSS
// 2019), used to search toplist screenshots for dialogs the hostname
// fingerprints might have missed (fingerprint validation, Section 3.2).
var gdprPhrases = []string{
	"we value your privacy",
	"we use cookies",
	"cookie consent",
	"personal data",
	"privacy policy",
	"gdpr",
}

// HasConsentLanguage reports whether the capture's screenshot text
// contains a known GDPR consent phrase.
func HasConsentLanguage(c *capture.Capture) bool {
	text := strings.ToLower(c.ScreenshotText)
	for _, p := range gdprPhrases {
		if strings.Contains(text, p) {
			return true
		}
	}
	return false
}

// SiteHeuristicThreshold is the share of captures that must contain
// the CMP for a website to be classified as using it: "we classify a
// website as using a CMP if the CMP is included in at least every
// third capture" (Section 3.5, Subsites).
const SiteHeuristicThreshold = 1.0 / 3
