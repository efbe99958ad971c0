package webworld

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cmps"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/tcf"
)

var (
	preChoiceOnce  sync.Once
	preChoiceValue string
)

// preChoiceConsent returns the canned fully-granting TCF string that
// pre-choice-consent sites store without asking the user.
func preChoiceConsent() string {
	preChoiceOnce.Do(func() {
		c := tcf.New(time.Date(2020, time.January, 1, 0, 0, 0, 0, time.UTC))
		c.SetAllPurposes(true)
		c.SetAllVendors(500, true)
		s, err := c.Encode()
		if err != nil {
			panic("webworld: pre-choice consent string: " + err.Error())
		}
		preChoiceValue = s
	})
	return preChoiceValue
}

// Geo is the geographic origin of a visit.
type Geo int

const (
	GeoUS Geo = iota
	GeoEU
)

func (g Geo) String() string {
	if g == GeoEU {
		return "EU"
	}
	return "US"
}

// VisitContext describes one page visit: when, from where, and from
// what kind of address space.
type VisitContext struct {
	Day simtime.Day
	Geo Geo
	// Cloud marks public-cloud address space; CDN anti-bot
	// interstitials block such visitors (Section 3.5).
	Cloud bool
	// Language is the browser's preferred language ("en-US", "de",
	// "en-GB"). The paper found it has no significant effect; the
	// simulation honours that.
	Language string
}

// Resource is one HTTP request a page load triggers.
type Resource struct {
	Host string
	Path string
	// StartMS is when the request starts, relative to navigation.
	StartMS int
	Status  int
	// BytesCompressed / BytesRaw are transfer sizes.
	BytesCompressed int
	BytesRaw        int
}

// Cookie is a stored cookie observed in a capture.
type Cookie struct {
	Domain string
	Name   string
	Value  string
}

// StorageKind distinguishes the browser storage mechanisms Netograph
// records for every domain in a capture (Section 3.2).
type StorageKind int

const (
	LocalStorage StorageKind = iota
	SessionStorage
	IndexedDB
	WebSQL
)

func (k StorageKind) String() string {
	switch k {
	case LocalStorage:
		return "localStorage"
	case SessionStorage:
		return "sessionStorage"
	case IndexedDB:
		return "indexedDB"
	case WebSQL:
		return "webSQL"
	default:
		return "unknown"
	}
}

// StorageRecord is one browser-storage entry created during a load.
type StorageRecord struct {
	Kind   StorageKind
	Origin string // the writing origin (host)
	Key    string
	// Identifying marks values that could identify the user across
	// visits (Sanchez-Rola et al.: 90% of sites use cookies that could
	// identify users, even post-GDPR).
	Identifying bool
}

// Page is the ground-truth result of rendering a URL in a context.
// The browser package turns Pages into crawler captures by applying
// timeout policies.
type Page struct {
	// Status is the final HTTP status of the main document.
	Status int
	// RedirectChain lists registrable domains traversed before the
	// final one, excluding it. Empty for direct loads.
	RedirectChain []string
	// FinalHost is the address-bar hostname after redirects.
	FinalHost string
	// FinalDomain is FinalHost normalized to its registrable domain.
	FinalDomain string
	// Path is the final path.
	Path string
	// Resources are all subresource requests, in start order.
	Resources []Resource
	// Cookies set during the load.
	Cookies []Cookie
	// Storage lists browser-storage records created during the load.
	Storage []StorageRecord
	// IdleAtMS is when the page first goes network-idle.
	IdleAtMS int
	// DialogShown reports whether a consent dialog rendered.
	DialogShown bool
	// ScreenshotText is the visible text (above the fold).
	ScreenshotText string
	// DOM is a synthesized DOM snippet (populated only on request via
	// ctx-independent domain traits; the browser decides whether to
	// store it).
	DOM string
	// AntiBotBlocked marks an interstitial page served instead of the
	// site content.
	AntiBotBlocked bool
}

// ErrTemporarilyDown marks a transient outage; retrying on another day
// usually succeeds.
var ErrTemporarilyDown = errors.New("temporarily unavailable")

// transientDownRate is the per-(domain, day) probability of a
// transient outage among otherwise reachable domains.
const transientDownRate = 0.02

// TransientDown reports whether the (reachable) domain suffers a
// transient outage on the given day.
func (w *World) TransientDown(name string, day simtime.Day) bool {
	rate := transientDownRate
	switch {
	case w.cfg.TransientDownRate < 0:
		return false
	case w.cfg.TransientDownRate > 0:
		rate = w.cfg.TransientDownRate
	}
	return w.src.Bool(rate, "transient", name, day.String())
}

// ErrUnknownDomain is returned for visits to domains outside the
// universe.
type ErrUnknownDomain struct{ Name string }

func (e *ErrUnknownDomain) Error() string {
	return fmt.Sprintf("webworld: unknown domain %q", e.Name)
}

// Visit renders the page at domain+path in the given context. It
// resolves top-level redirects, applies geo- and vantage-dependent
// behaviour, and emits the resource log that CMP detection consumes.
func (w *World) Visit(domainName, path string, ctx VisitContext) (*Page, error) {
	d := w.byName[domainName]
	if d == nil {
		return nil, &ErrUnknownDomain{domainName}
	}
	var chain []string
	for d.RedirectTo != "" {
		chain = append(chain, d.Name)
		next := w.byName[d.RedirectTo]
		if next == nil || len(chain) > 5 {
			break
		}
		d = next
	}
	p := &Page{
		RedirectChain: chain,
		FinalHost:     "www." + d.Name,
		FinalDomain:   d.Name,
		Path:          path,
		Status:        200,
	}
	if !d.HTTPSWWW {
		p.FinalHost = d.Name
	}

	switch {
	case d.Unreachable:
		return nil, fmt.Errorf("webworld: %s: connection refused", d.Name)
	case w.TransientDown(d.Name, ctx.Day):
		// Temporarily unavailable: the toplist procedure retries these
		// "three times over a week" (Section 3.2).
		return nil, fmt.Errorf("webworld: %s: %w", d.Name, ErrTemporarilyDown)
	case d.NoValidResponse:
		p.Status = 0
		return p, nil
	case d.HTTPError:
		p.Status = 503
		p.IdleAtMS = 400
		return p, nil
	case d.Geo451 && ctx.Geo == GeoEU:
		// Complying with CCPA in the US but refusing EU visitors.
		p.Status = 451
		p.IdleAtMS = 350
		p.ScreenshotText = "451 Unavailable For Legal Reasons"
		return p, nil
	case d.AntiBot && ctx.Cloud:
		// CDN anti-bot interstitial: no site resources load.
		p.AntiBotBlocked = true
		p.Status = 403
		p.IdleAtMS = 600
		p.ScreenshotText = "Checking your browser before accessing " + d.Name
		p.Resources = append(p.Resources, Resource{
			Host: "cdn-challenge.example.net", Path: "/interstitial.js",
			StartMS: 120, Status: 200, BytesCompressed: 9_000, BytesRaw: 22_000,
		})
		return p, nil
	}

	w.renderContent(d, p, ctx)
	return p, nil
}

// pageStream derives the deterministic randomness for one page render.
func (w *World) pageStream(d *Domain, path string, ctx VisitContext) *rng.Source {
	return w.src.Derive("page", d.Name, path, ctx.Day.String(), ctx.Geo.String())
}

// assetPaths are the paths of a page's first-party assets (at most
// 4+11 of them), formatted once rather than on every render.
var assetPaths = func() (paths [15]string) {
	for i := range paths {
		paths[i] = fmt.Sprintf("/static/asset-%d.js", i)
	}
	return paths
}()

// renderContent emits the resources, cookies and dialog state for a
// successfully loaded page.
func (w *World) renderContent(d *Domain, p *Page, ctx VisitContext) {
	ps := w.pageStream(d, p.Path, ctx)
	r := ps.Stream("load")
	// Room for every resource a page can load: the document, its
	// assets, the trackers and a CMP's three files.
	p.Resources = make([]Resource, 0, 1+len(assetPaths)+len(trackerHosts)+3)

	// Base document and first-party assets.
	addRes := func(host, path string, startMS, compressed, raw int) {
		p.Resources = append(p.Resources, Resource{
			Host: host, Path: path, StartMS: startMS, Status: 200,
			BytesCompressed: compressed, BytesRaw: raw,
		})
	}
	addRes(p.FinalHost, p.Path, 0, 18_000+r.Intn(40_000), 70_000+r.Intn(150_000))
	nAssets := 4 + r.Intn(12)
	for i := 0; i < nAssets; i++ {
		addRes(p.FinalHost, assetPaths[i],
			80+r.Intn(900), 3_000+r.Intn(30_000), 9_000+r.Intn(90_000))
	}
	// Third-party trackers on most non-bare pages.
	subsiteIdx := subsiteIndexOf(d, p.Path)
	bare := d.subsiteIsBare(subsiteIdx)
	if !bare {
		for _, t := range trackerHosts {
			if r.Float64() < 0.45 {
				addRes(t, "/collect", 200+r.Intn(1200), 800+r.Intn(4_000), 1_500+r.Intn(9_000))
				// Trackers set identifying cookies regardless of
				// consent on the vast majority of sites (Sanchez-Rola
				// et al., cited in Section 6); the privacy-friendly
				// minority configures them cookieless.
				if !d.PrivacyFriendly && r.Float64() < 0.90 {
					p.Cookies = append(p.Cookies, Cookie{Domain: t, Name: "uid", Value: "u-" + rng.Key(r.Intn(1_000_000))})
				}
			}
		}
		if d.PrivacyFriendly {
			// An anonymous, value-less session marker only.
			p.Cookies = append(p.Cookies, Cookie{Domain: d.Name, Name: "session", Value: ""})
		} else {
			p.Cookies = append(p.Cookies, Cookie{Domain: d.Name, Name: "session", Value: "s-" + rng.Key(r.Intn(1_000_000))})
		}
		// First- and third-party browser storage, per Netograph's
		// capture schema.
		if r.Float64() < 0.65 {
			p.Storage = append(p.Storage, StorageRecord{
				Kind: LocalStorage, Origin: p.FinalHost, Key: "prefs", Identifying: false,
			})
		}
		if !d.PrivacyFriendly && r.Float64() < 0.55 {
			p.Storage = append(p.Storage, StorageRecord{
				Kind: LocalStorage, Origin: "www.google-analytics.com", Key: "_ga_client", Identifying: true,
			})
		}
		if r.Float64() < 0.18 {
			p.Storage = append(p.Storage, StorageRecord{
				Kind: IndexedDB, Origin: p.FinalHost, Key: "app-cache", Identifying: false,
			})
		}
		if r.Float64() < 0.10 {
			p.Storage = append(p.Storage, StorageRecord{
				Kind: SessionStorage, Origin: p.FinalHost, Key: "nav-state", Identifying: false,
			})
		}
	}
	p.IdleAtMS = 1_600 + r.Intn(2_400)
	p.ScreenshotText = "Welcome to " + d.Name + " — latest stories and updates."
	p.DOM = "<html><head><title>" + d.Name + "</title></head><body><main class=\"content\">…</main></body></html>"

	cmp := d.CMPAt(ctx.Day)
	if cmp == cmps.None || bare {
		return
	}
	if d.CMPSubsitesOnly && subsiteIdx == 0 {
		// The landing page carries no consent management; only the
		// (ad-funded) content pages do. Front-page crawls miss this
		// site's CMP entirely.
		return
	}
	if d.EUOnlyEmbed && ctx.Geo != GeoEU {
		// The CMP is only embedded for EU visitors, unless the site
		// has joined the CCPA wave and serves it to US visitors too.
		if d.USVisibleFrom == 0 || ctx.Day < d.USVisibleFrom {
			return
		}
	}

	// CMP resources: the indicator hostname request (Table A.2) plus
	// auxiliary CMP endpoints. Slow-loading sites start the CMP stack
	// only after the page has already gone idle once, which aggressive
	// idle timeouts cut off (Section 3.5, "Crawler Timeouts").
	cmpStart := 300 + r.Intn(1_000)
	if d.SlowLoad {
		cmpStart = p.IdleAtMS + 5_400 + r.Intn(2_500)
	}
	addRes(cmp.Hostname(), "/cmp.js", cmpStart, 24_000+r.Intn(18_000), 85_000+r.Intn(60_000))
	addRes(cmp.Hostname(), "/config/"+d.Name+".json", cmpStart+150, 2_000+r.Intn(2_000), 6_000+r.Intn(8_000))
	if cmp.ImplementsTCF() {
		addRes("vendorlist.consensu.org", "/vendor-list.json", cmpStart+300, 30_000, 210_000)
		if d.PreChoiceConsent {
			// The consent signal is sent before the user makes any
			// choice: a fully-granting euconsent cookie appears on
			// first load (Matte et al.: 12% of TCF sites).
			p.Cookies = append(p.Cookies, Cookie{
				Domain: ".consensu.org", Name: "euconsent", Value: preChoiceConsent(),
			})
		}
	}

	// Dialog visibility: geo-configured dialogs and customization.
	showDialog := true
	if d.ShowDialogOnlyEU && ctx.Geo != GeoEU {
		showDialog = false
	}
	if d.Custom.Variant == VariantHiddenFromEU && ctx.Geo == GeoEU {
		showDialog = false
	}
	if d.Custom.Variant == VariantFooterLink {
		showDialog = false
		p.DOM += fmt.Sprintf("<footer><a href=\"/privacy\">%s</a></footer>", d.Custom.Footer)
	}
	p.DialogShown = showDialog
	if showDialog {
		p.ScreenshotText += " " + dialogText(cmp, d)
		p.DOM += dialogDOM(cmp, d, w.PromptRevision(cmp, ctx.Day))
	}
}

// trackerHosts are common third parties unrelated to consent; present
// so detection must discriminate rather than flag any third party.
var trackerHosts = []string{
	"www.google-analytics.com",
	"securepubads.g.doubleclick.net",
	"connect.facebook.net",
	"cdn.jsdelivr.net",
	"static.hotjar.com",
}

// dialogText synthesizes the visible consent-prompt wording, including
// the GDPR phrases Degeling et al. catalogued (used by the detector's
// text fallback).
func dialogText(cmp cmps.ID, d *Domain) string {
	if d.APIOnly {
		return fmt.Sprintf("%s cares about your data. Manage preferences in our custom settings.", d.Name)
	}
	var b strings.Builder
	b.WriteString("We value your privacy. We and our partners use technologies, such as cookies, and process personal data. ")
	switch d.Custom.Variant {
	case VariantDirectReject:
		fmt.Fprintf(&b, "[%s] [I DO NOT ACCEPT]", d.Custom.AcceptText)
	case VariantMoreOptions:
		fmt.Fprintf(&b, "[%s] [MORE OPTIONS]", d.Custom.AcceptText)
	case VariantScriptBanner:
		fmt.Fprintf(&b, "[Accept] [Reject/Manage Scripts]")
	case VariantOptOutConnects, VariantAutonomyButton:
		fmt.Fprintf(&b, "[%s] [Manage My Choices]", d.Custom.AcceptText)
	case VariantNoControlLink:
		fmt.Fprintf(&b, "[%s] (privacy notice)", d.Custom.AcceptText)
	default:
		fmt.Fprintf(&b, "[%s] [Cookie Settings]", d.Custom.AcceptText)
	}
	fmt.Fprintf(&b, " Powered by %s", cmp)
	return b.String()
}

// dialogDOM synthesizes the CMP dialog markup with provider-specific
// CSS classes and the framework's prompt revision; the toplist crawls
// store this for the I3 analysis and the prompt-change history.
func dialogDOM(cmp cmps.ID, d *Domain, rev int) string {
	class := map[cmps.ID]string{
		cmps.OneTrust:  "onetrust-banner-sdk",
		cmps.Quantcast: "qc-cmp-ui",
		cmps.TrustArc:  "truste_overlay",
		cmps.Cookiebot: "CybotCookiebotDialog",
		cmps.LiveRamp:  "faktor-cmp",
		cmps.Crownpeak: "evidon-banner",
	}[cmp]
	return fmt.Sprintf("<div class=%q data-variant=%q data-confirm=%t data-prompt-rev=\"%d\">%s</div>",
		class, d.Custom.Variant, d.Custom.ConfirmRequired, rev, d.Custom.AcceptText)
}

// subsiteIndexOf parses a subsite path back to its index; unknown
// paths map to the landing page.
func subsiteIndexOf(d *Domain, path string) int {
	var i int
	if _, err := fmt.Sscanf(path, "/page/%d", &i); err == nil && i > 0 && i < d.Subsites {
		return i
	}
	return 0
}
