// Package analysis computes every table and figure of the paper's
// evaluation (Section 4) from crawl data: vantage-point tables
// (Tables 1, A.3), market share by toplist size (Figures 5, A.4–A.6),
// adoption over time (Figure 6), inter-CMP switching flows (Figure 4),
// publisher customization (item I3), and the methodology statistics of
// Section 3.5.
package analysis

import (
	"repro/internal/cmps"
	"repro/internal/interp"
	"repro/internal/simtime"
)

// PresenceDB holds reconstructed per-domain CMP presence intervals —
// the longitudinal core dataset every social-feed analysis consumes.
// PresenceFold builds it.
type PresenceDB struct {
	intervals map[string][]interp.Interval
}

// CMPAt returns the domain's CMP at the given day, or cmps.None.
func (p *PresenceDB) CMPAt(domain string, day simtime.Day) cmps.ID {
	return interp.At(p.intervals[domain], day)
}

// Intervals returns a domain's presence intervals (nil if none).
func (p *PresenceDB) Intervals(domain string) []interp.Interval {
	return p.intervals[domain]
}

// Domains returns all domains with at least one presence interval.
func (p *PresenceDB) Domains() []string {
	out := make([]string, 0, len(p.intervals))
	for d := range p.intervals {
		out = append(out, d)
	}
	return out
}

// Len returns the number of domains with presence.
func (p *PresenceDB) Len() int { return len(p.intervals) }
