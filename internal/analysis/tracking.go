package analysis

import (
	"strings"

	"repro/internal/capture"
)

// Third-party tracking context (Section 6 related work): even after
// GDPR, Sanchez-Rola et al. found 90% of sampled websites using
// cookies that could identify users, and Sørensen & Kosta found no
// change in third-party tracker counts. These statistics provide the
// baseline against which consent management's (in)effectiveness is
// judged.

// TrackingStats summarizes identifying-technology usage over a set of
// captured websites.
type TrackingStats struct {
	// Websites is the number of distinct final domains examined.
	Websites int
	// WithIdentifyingCookie counts sites whose capture stored at least
	// one cookie or storage record that could identify the user.
	WithIdentifyingCookie int
	// WithThirdPartyTracker counts sites that loaded at least one
	// known third-party tracker.
	WithThirdPartyTracker int
	// MeanThirdParties is the average number of distinct third-party
	// hosts contacted per site.
	MeanThirdParties float64
}

// IdentifyingShare returns the fraction of sites with identifying
// storage (≈90% in Sanchez-Rola et al.).
func (s *TrackingStats) IdentifyingShare() float64 {
	if s.Websites == 0 {
		return 0
	}
	return float64(s.WithIdentifyingCookie) / float64(s.Websites)
}

// TrackerShare returns the fraction of sites embedding third-party
// trackers.
func (s *TrackingStats) TrackerShare() float64 {
	if s.Websites == 0 {
		return 0
	}
	return float64(s.WithThirdPartyTracker) / float64(s.Websites)
}

// ComputeTracking derives tracking statistics from captures,
// considering one capture per final domain.
func ComputeTracking(caps []*capture.Capture) *TrackingStats {
	stats := &TrackingStats{}
	seen := map[string]bool{}
	thirdPartyTotal := 0
	for _, c := range caps {
		if c.Failed || c.Status != 200 || seen[c.FinalDomain] {
			continue
		}
		seen[c.FinalDomain] = true
		stats.Websites++

		identifying := false
		for _, ck := range c.Cookies {
			// Third-party uid cookies and session identifiers with
			// unique values can re-identify the user.
			if ck.Name == "uid" || (ck.Name == "session" && ck.Value != "") {
				identifying = true
			}
		}
		for _, sr := range c.Storage {
			if sr.Identifying {
				identifying = true
			}
		}
		if identifying {
			stats.WithIdentifyingCookie++
		}

		siteHost := hostOf(c.FinalURL)
		thirdParties := map[string]bool{}
		hasTracker := false
		for _, r := range c.Requests {
			if r.Host == siteHost || strings.HasSuffix(r.Host, "."+c.FinalDomain) || r.Host == c.FinalDomain {
				continue
			}
			thirdParties[r.Host] = true
			if isKnownTracker(r.Host) {
				hasTracker = true
			}
		}
		if hasTracker {
			stats.WithThirdPartyTracker++
		}
		thirdPartyTotal += len(thirdParties)
	}
	if stats.Websites > 0 {
		stats.MeanThirdParties = float64(thirdPartyTotal) / float64(stats.Websites)
	}
	return stats
}

func hostOf(rawURL string) string {
	s := rawURL
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		s = s[:i]
	}
	return strings.ToLower(s)
}

// isKnownTracker matches the tracker hosts of the synthetic web.
func isKnownTracker(host string) bool {
	switch host {
	case "www.google-analytics.com", "securepubads.g.doubleclick.net",
		"connect.facebook.net", "static.hotjar.com":
		return true
	}
	return false
}
