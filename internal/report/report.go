// Package report renders the reproduction's results in the layout of
// the paper's tables and figures: plain-text tables for terminals and
// markdown for EXPERIMENTS.md. Each renderer consumes the result types
// of the analysis packages, so the same data feeds benchmarks, CLI
// tools and documentation.
package report

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/analysis"
	"repro/internal/cmps"
	"repro/internal/compliance"
	"repro/internal/consent"
	"repro/internal/gvl"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// table builds an aligned text table.
func table(render func(w *tabwriter.Writer)) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	render(w)
	w.Flush()
	return sb.String()
}

// VantageTable renders Table 1 / Table A.3.
func VantageTable(title string, t *analysis.VantageTable) string {
	return title + "\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprint(w, "CMP")
		for _, cfg := range t.Configs {
			fmt.Fprintf(w, "\t%s", shortConfig(cfg))
		}
		fmt.Fprintln(w)
		for _, c := range cmps.All() {
			fmt.Fprintf(w, "%s", c)
			for _, cfg := range t.Configs {
				fmt.Fprintf(w, "\t%d", t.Count(c, cfg))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprint(w, "Σ")
		for _, cfg := range t.Configs {
			fmt.Fprintf(w, "\t%d", t.Totals[cfg])
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, "Coverage")
		for _, cfg := range t.Configs {
			fmt.Fprintf(w, "\t%.0f%%", 100*t.Coverage[cfg])
		}
		fmt.Fprintln(w)
	})
}

func shortConfig(key string) string {
	key = strings.ReplaceAll(key, "eu-university/", "uni:")
	key = strings.ReplaceAll(key, "/default", "")
	key = strings.ReplaceAll(key, "extended-timeout", "ext")
	key = strings.ReplaceAll(key, "lang-", "")
	return key
}

// MarketShare renders Figure 5 / A.4–A.6.
func MarketShare(title string, pts []analysis.MarketSharePoint) string {
	return title + "\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprint(w, "Toplist size")
		for _, c := range cmps.All() {
			fmt.Fprintf(w, "\t%s", c)
		}
		fmt.Fprintln(w, "\tTotal")
		for _, pt := range pts {
			fmt.Fprintf(w, "%d", pt.Size)
			for _, c := range cmps.All() {
				fmt.Fprintf(w, "\t%.2f%%", 100*pt.Share[c])
			}
			fmt.Fprintf(w, "\t%.2f%%\n", 100*pt.TotalShare)
		}
	})
}

// Adoption renders Figure 6 as a monthly series with the event
// timeline interleaved.
func Adoption(title string, pts []analysis.AdoptionPoint, toplistSize int) string {
	events := simtime.Events()
	return title + "\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprint(w, "Month")
		for _, c := range cmps.All() {
			fmt.Fprintf(w, "\t%s", c)
		}
		fmt.Fprintln(w, "\tTotal\tShare\tEvent")
		lastMonth := simtime.Day(-1)
		for _, pt := range pts {
			m := pt.Day.Month()
			if m == lastMonth {
				continue
			}
			lastMonth = m
			fmt.Fprintf(w, "%s", pt.Day.Time().Format("2006-01"))
			for _, c := range cmps.All() {
				fmt.Fprintf(w, "\t%d", pt.Counts[c])
			}
			fmt.Fprintf(w, "\t%d\t%.1f%%", pt.Total, 100*float64(pt.Total)/float64(toplistSize))
			names := []string{}
			for _, e := range events {
				if e.Day.Month() == m {
					names = append(names, e.Name)
				}
			}
			fmt.Fprintf(w, "\t%s\n", strings.Join(names, "; "))
		}
	})
}

// Flows renders Figure 4: per-CMP gains/losses plus the transition
// matrix between providers.
func Flows(m *analysis.FlowMatrix) string {
	out := "Figure 4 — inter-CMP switching flows\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "CMP\tgains←competitors\tlosses→competitors\tnet\tadoptions\tabandons")
		for _, c := range cmps.All() {
			fmt.Fprintf(w, "%s\t%d\t%d\t%+d\t%d\t%d\n", c,
				m.GainsFromCompetitors(c), m.LossesToCompetitors(c), m.NetCompetitive(c),
				m.Adoptions(c), m.Abandons(c))
		}
	})
	out += "Transition matrix (row → column):\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprint(w, "from\\to")
		for _, to := range cmps.All() {
			fmt.Fprintf(w, "\t%s", to)
		}
		fmt.Fprintln(w)
		for _, from := range cmps.All() {
			fmt.Fprintf(w, "%s", from)
			for _, to := range cmps.All() {
				fmt.Fprintf(w, "\t%d", m.Between(from, to))
			}
			fmt.Fprintln(w)
		}
	})
	return out
}

// GVLSeries renders Figure 7 (quarterly resolution).
func GVLSeries(series []gvl.PurposePoint) string {
	return "Figure 7 — vendors and purposes on the Global Vendor List\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Date\tVersion\tVendors\tP1\tP2\tP3\tP4\tP5\tLI1\tLI2\tLI3\tLI4\tLI5")
		for i, pt := range series {
			if i%12 != 0 && i != len(series)-1 {
				continue
			}
			fmt.Fprintf(w, "%s\t%d\t%d", pt.Date.Format("2006-01-02"), pt.Version, pt.VendorCount)
			for p := 1; p <= 5; p++ {
				fmt.Fprintf(w, "\t%d", pt.Consent[p])
			}
			for p := 1; p <= 5; p++ {
				fmt.Fprintf(w, "\t%d", pt.LegInt[p])
			}
			fmt.Fprintln(w)
		}
	})
}

// LegalBasisFlows renders Figure 8.
func LegalBasisFlows(h *gvl.History) string {
	flows := h.LegalBasisFlows()
	out := "Figure 8 — legal-basis changes by existing GVL vendors (monthly)\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Month\tstart-consent\tstop-consent\tstart-LI\tstop-LI\tconsent→LI\tLI→consent\tjoined\tleft")
		for _, f := range flows {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				f.Month.Format("2006-01"),
				f.Count(gvl.StartConsent), f.Count(gvl.StopConsent),
				f.Count(gvl.StartLegInt), f.Count(gvl.StopLegInt),
				f.Count(gvl.ConsentToLegInt), f.Count(gvl.LegIntToConsent),
				f.Count(gvl.VendorJoined), f.Count(gvl.VendorLeft))
		}
	})
	out += fmt.Sprintf("Net LI→consent over the window: %+d (paper: net positive — vendors moved toward obtaining consent)\n",
		h.NetLegIntToConsent())
	return out
}

// TrustArc renders Figure 9.
func TrustArc(runs []*consent.OptOutRun) string {
	med := consent.MedianTotalMS(runs) / 1000
	r := runs[0]
	out := fmt.Sprintf("Figure 9 — TrustArc opt-out on forbes.com (hourly × %d days)\n", len(runs)/24)
	out += fmt.Sprintf("median opt-out wait: %.1f s (paper: ≥34 s); clicks: %d (paper: 7)\n", med, r.Clicks)
	out += fmt.Sprintf("network overhead vs accept: +%d requests to %d domains, +%.1f MB / %.1f MB (compressed/raw; paper: +279 to 25, +1.2/5.8 MB)\n",
		r.ExtraRequests, r.ExtraDomains, float64(r.ExtraBytesCompressed)/1e6, float64(r.ExtraBytesRaw)/1e6)
	out += "Opt-out pipeline stages (first run):\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "stage\tclick\tstart\tend\trequests")
		for _, s := range r.Steps {
			fmt.Fprintf(w, "%s\t%v\t%.1fs\t%.1fs\t%d\n", s.Name, s.Click, s.StartMS/1000, s.EndMS/1000, s.Requests)
		}
	})
	return out
}

// Quantcast renders Figure 10.
func Quantcast(res *consent.ExperimentResult) string {
	out := fmt.Sprintf("Figure 10 — Quantcast dialog timing (randomized, %d dialogs shown)\n", res.TotalShown)
	render := func(cr consent.ConfigResult, label string) string {
		return table(func(w *tabwriter.Writer) {
			fmt.Fprintf(w, "config\t%s\n", label)
			fmt.Fprintf(w, "N accept / N reject\t%d / %d\n", len(cr.AcceptTimes), len(cr.RejectTimes))
			fmt.Fprintf(w, "median accept / reject\t%.1f s / %.1f s\n", cr.MedianAcceptSec, cr.MedianRejectSec)
			fmt.Fprintf(w, "consent rate\t%.0f%%\n", 100*cr.ConsentRate)
			fmt.Fprintf(w, "Mann–Whitney\tU=%.0f z=%.2f p=%.4g\n", cr.Test.U, cr.Test.Z, cr.Test.P)
		})
	}
	out += render(res.DirectReject, "A: direct reject button (Figure A.1)")
	out += render(res.MoreOptions, "B: \"More Options\" (Figures A.2–A.3)")
	out += "Paper: A = 3.2s/3.6s at 83%, U(1344,279)=166582, z=-2.93, p<0.01;\n"
	out += "       B reject doubles to 6.7s at 90%, U(1152,135)=30494, z=-11.57, p<0.001.\n"
	return out
}

// Customization renders the item-I3 statistics.
func Customization(statsByCMP map[cmps.ID]*analysis.CustomizationStats) string {
	out := "Section 4.1 — publisher customization (I3, EU-university DOM store)\n"
	for _, c := range cmps.All() {
		s := statsByCMP[c]
		if s == nil || s.Websites == 0 {
			continue
		}
		out += fmt.Sprintf("%s (%d websites):\n", c, s.Websites)
		var names, footers []string
		for v := range s.Variants {
			names = append(names, v)
		}
		sort.Strings(names)
		for text := range s.FooterTexts {
			footers = append(footers, text)
		}
		sort.Strings(footers)
		out += table(func(w *tabwriter.Writer) {
			for _, v := range names {
				fmt.Fprintf(w, "  %s\t%d\t%.1f%%\n", v, s.Variants[v], 100*s.VariantShare(v))
			}
			if s.ConfirmRequired > 0 {
				fmt.Fprintf(w, "  opt-out needs confirmation\t%d\t\n", s.ConfirmRequired)
			}
			if s.AffirmativeAccept+s.FreeformAccept > 0 {
				fmt.Fprintf(w, "  affirmative / freeform accept wording\t%d / %d\t\n",
					s.AffirmativeAccept, s.FreeformAccept)
			}
			for _, text := range footers {
				fmt.Fprintf(w, "  footer link %q\t%d\t\n", text, s.FooterTexts[text])
			}
		})
	}
	out += fmt.Sprintf("API-only (custom dialog) share: %.1f%% (paper: ≈8%%)\n",
		100*analysis.APIOnlyShare(statsByCMP))
	return out
}

// MissingData renders the Section 3.5 breakdown.
func MissingData(md *analysis.MissingData) string {
	return "Section 3.5 — toplist domains never shared on social media\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintf(w, "toplist size\t%d\n", md.ToplistSize)
		fmt.Fprintf(w, "never shared\t%d\t(paper: 1076 of 10k)\n", md.NeverShared)
		fmt.Fprintf(w, "  unreachable\t%d\t(315)\n", md.Unreachable)
		fmt.Fprintf(w, "  no valid HTTP response\t%d\t(4)\n", md.NoValidResponse)
		fmt.Fprintf(w, "  HTTP error status\t%d\t(70)\n", md.HTTPError)
		fmt.Fprintf(w, "  redirected elsewhere\t%d\t(192)\n", md.RedirectedElswhere)
		fmt.Fprintf(w, "  infrastructure\t%d\t(>90%% of remainder)\n", md.Infrastructure)
		fmt.Fprintf(w, "  other\t%d\n", md.Other)
	})
}

// PriorWork renders Figure 1.
func PriorWork() string {
	return "Figure 1 — prior post-GDPR studies vs this work\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Study\tVenue\tWindow\tDomains\tDesign")
		for _, s := range analysis.PriorWork() {
			design := "longitudinal"
			if s.Snapshot {
				design = "snapshot"
			}
			fmt.Fprintf(w, "%s\t%s\t%s – %s\t%d\t%s\n", s.Label, s.Venue,
				s.Start.Format("2006-01"), s.End.Format("2006-01"), s.Domains, design)
		}
	}) + fmt.Sprintf("Quantcast's consent prompt alone changed %d times in the observation period.\n",
		analysis.QuantcastPromptChanges)
}

// Compliance renders a violation survey (Matte-et-al audit classes).
func Compliance(res *compliance.SurveyResult) string {
	out := fmt.Sprintf("Compliance audit — %d TCF websites\n", res.Audited)
	return out + table(func(w *tabwriter.Writer) {
		ref := map[compliance.Violation]string{
			compliance.ConsentBeforeChoice:   "(Matte et al.: 12%)",
			compliance.ConsentAfterOptOut:    "(Matte et al.: \"some\")",
			compliance.NoDirectReject:        "(Nouwens et al.: ≈50%)",
			compliance.NonAffirmativeWording: "(this paper: 13% of Quantcast sites)",
		}
		for _, v := range compliance.Violations() {
			fmt.Fprintf(w, "%s\t%d\t%.1f%%\t%s\n", v, res.Counts[v], 100*res.Share(v), ref[v])
		}
	})
}

// PromptChanges renders the per-CMP prompt-change history (Figure 1's
// annotation).
func PromptChanges(changes map[cmps.ID]int) string {
	return "Prompt changes observed over the window (Figure 1: Quantcast changed 38 times)\n" +
		table(func(w *tabwriter.Writer) {
			for _, c := range cmps.All() {
				fmt.Fprintf(w, "%s\t%d\n", c, changes[c])
			}
		})
}

// TimeCost renders the privacy time-cost synthesis.
func TimeCost(res analysis.TimeCostResult) string {
	out := "Privacy time cost — an always-reject user vs an accept-everything user\n"
	out += fmt.Sprintf("  a visited site shows a dialog with probability %.1f%%\n", 100*res.DialogChance)
	out += fmt.Sprintf("  expected extra interaction: %.2f s per site visited, %.0f s per 100 sites\n",
		res.ExtraSecPerVisit, res.ExtraSecPer100Sites)
	out += "  by CMP (expected extra seconds per visit):\n"
	out += table(func(w *tabwriter.Writer) {
		for _, c := range cmps.All() {
			if res.PerCMP[c] > 0 {
				fmt.Fprintf(w, "    %s\t%.3f s\n", c, res.PerCMP[c])
			}
		}
	})
	return out
}

// Retention renders the Kaplan–Meier customer-lifetime estimates
// behind the Figure 4 gateway narrative.
func Retention(ret map[cmps.ID]*analysis.Retention) string {
	return "Customer retention (Kaplan–Meier over witnessed removals; fade-out ends are censoring.\n" +
		"At sparse sampling most ends are censored — survival estimates are upper bounds.)\n" +
		table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "CMP\tepisodes\tcensored\tS(1y)\tS(2y)\tmedian lifetime")
			for _, c := range cmps.All() {
				r := ret[c]
				if r == nil || r.Episodes == 0 {
					continue
				}
				med := "> window"
				if r.MedianDays > 0 {
					med = fmt.Sprintf("%d d", r.MedianDays)
				}
				fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\t%.2f\t%s\n",
					c, r.Episodes, r.Censored, r.SurvivalAt(365), r.SurvivalAt(730), med)
			}
		})
}

// CoverageSeries renders the monthly vantage-coverage series (the
// continuous version of Tables 1 and A.3).
func CoverageSeries(pts []analysis.CoveragePoint) string {
	return "Vantage coverage over time (Tables 1/A.3 continuously: CCPA drives US visibility up)\n" +
		table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "Month\tUS cloud\tEU cloud\tEU university")
			for _, pt := range pts {
				fmt.Fprintf(w, "%s\t%.0f%%\t%.0f%%\t%.0f%%\n",
					pt.Day.Time().Format("2006-01"), 100*pt.USCloud, 100*pt.EUCloud, 100*pt.UniDefault)
			}
		})
}

// Tracking renders the third-party tracking context statistics.
func Tracking(s *analysis.TrackingStats) string {
	return fmt.Sprintf(
		"Tracking context — %d websites: %.0f%% store identifying state "+
			"(Sanchez-Rola et al.: 90%%), %.0f%% embed known trackers, "+
			"%.1f third-party hosts per site on average\n",
		s.Websites, 100*s.IdentifyingShare(), 100*s.TrackerShare(), s.MeanThirdParties)
}

// Subsites renders the subsite-coverage comparison.
func Subsites(c *analysis.SubsiteCoverage) string {
	return fmt.Sprintf(
		"Subsite coverage — %d domains: front pages reveal %d CMPs, subsite "+
			"sampling %d (+%.1f%%); %d sites carry their CMP only on subsites "+
			"(Section 3.5: subsite crawling \"increases the reliability of our results\")\n",
		c.Domains, c.FrontPageCMP, c.SubsiteCMP, 100*c.Gain(), c.OnlyOnSubsites)
}

// Timing summarizes a latency sample for custom reports.
func Timing(label string, xs []float64) string {
	s, err := stats.Summarize(xs)
	if err != nil {
		return fmt.Sprintf("%s: no data\n", label)
	}
	return fmt.Sprintf("%s: n=%d median=%.2f p25=%.2f p75=%.2f mean=%.2f\n",
		label, s.N, s.Median, s.P25, s.P75, s.Mean)
}
