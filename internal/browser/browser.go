// Package browser simulates the instrumented Google Chrome instances
// Netograph crawls with (Section 3.2): it loads a URL from the
// synthetic web, follows redirects, records HTTP requests, cookies and
// a screenshot, and applies the platform's aggressive load-detection
// timeouts — frame-load events, request timing, a five-second idle
// timeout, and a 45-second total page timeout (Section 3.5).
package browser

import (
	"fmt"
	"net/url"
	"strings"

	"repro/internal/capture"
	"repro/internal/psl"
	"repro/internal/simtime"
	"repro/internal/webworld"
)

// Options configure one browser instance.
type Options struct {
	// ExtendedTimeout relaxes the idle timeout, as in the second
	// toplist configuration; default is Netograph's aggressive policy.
	ExtendedTimeout bool
	// Language is the preferred browser language; default "en-US".
	Language string
	// StoreDOM stores the DOM tree with computed styles in the
	// capture, as done for toplist crawls only.
	StoreDOM bool
	// UserAgent defaults to Chrome-on-Linux, as used by the platform.
	UserAgent string
}

// ConfigLabel returns the capture config label for these options.
func (o Options) ConfigLabel() string {
	switch {
	case o.Language == "de":
		return "lang-de"
	case o.Language == "en-GB":
		return "lang-en-gb"
	case o.ExtendedTimeout:
		return "extended-timeout"
	default:
		return "default"
	}
}

// Timeout policy (Section 3.5, "Crawler Timeouts").
const (
	idleTimeoutMS     = 5_000
	totalTimeoutMS    = 45_000
	extendedIdleMS    = 30_000
	extendedTotalMS   = 90_000
	defaultUserAgent  = "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/83.0.4103.61 Safari/537.36"
	defaultResolution = "1024x800"
)

// Visitor is the substrate a browser loads pages from. *webworld.World
// implements it directly; resilience/chaos wraps it to inject
// deterministic faults between the browser and the world.
type Visitor interface {
	Visit(domain, path string, ctx webworld.VisitContext) (*webworld.Page, error)
}

// Browser loads pages from a webworld (or any fault-injecting wrapper
// of one).
type Browser struct {
	world Visitor
	opts  Options
}

// New returns a browser over the world.
func New(w Visitor, opts Options) *Browser {
	if opts.Language == "" {
		opts.Language = "en-US"
	}
	if opts.UserAgent == "" {
		opts.UserAgent = defaultUserAgent
	}
	return &Browser{world: w, opts: opts}
}

// Load visits a seed URL and produces a capture. Failed loads return a
// capture with Failed set (and the error recorded) rather than an
// error: the platform records unsuccessful captures too.
func (b *Browser) Load(seedURL string, day simtime.Day, vantage capture.Vantage) *capture.Capture {
	c := &capture.Capture{
		SeedURL: seedURL,
		Day:     day,
		Vantage: vantage,
		Config:  b.opts.ConfigLabel(),
	}
	host, path, err := splitSeed(seedURL)
	if err != nil {
		c.Failed = true
		c.Error = err.Error()
		return c
	}
	domain, err := psl.EffectiveTLDPlusOne(host)
	if err != nil {
		// Seed hosts are occasionally bare public suffixes; treat the
		// host itself as the domain.
		domain = host
	}
	page, err := b.world.Visit(domain, path, webworld.VisitContext{
		Day:      day,
		Geo:      vantage.Geo,
		Cloud:    vantage.Cloud,
		Language: b.opts.Language,
	})
	if err != nil {
		c.Failed = true
		c.Error = err.Error()
		return c
	}
	b.fill(c, page)
	return c
}

// fill converts a rendered page into a capture under the timeout
// policy.
func (b *Browser) fill(c *capture.Capture, page *webworld.Page) {
	c.Status = page.Status
	c.FinalURL = "https://" + page.FinalHost + page.Path
	// The paper counts by the final address-bar domain normalized via
	// the Public Suffix List, not the seed domain (≈11% of crawls
	// include top-level redirects).
	if d, err := psl.EffectiveTLDPlusOne(page.FinalHost); err == nil {
		c.FinalDomain = d
	} else {
		c.FinalDomain = page.FinalDomain
	}
	if page.Status == 0 {
		c.Failed = true
		c.Error = "no valid HTTP response"
		return
	}

	idle, total := idleTimeoutMS, totalTimeoutMS
	if b.opts.ExtendedTimeout {
		idle, total = extendedIdleMS, extendedTotalMS
	}
	// The load is considered finished at the first network-idle gap of
	// `idle` ms; resources starting later are never observed.
	cutoff := page.IdleAtMS + idle
	if cutoff > total {
		cutoff = total
	}
	c.Requests = make([]capture.Request, 0, len(page.Resources))
	for _, r := range page.Resources {
		if r.StartMS > cutoff {
			c.TimedOut = true
			continue
		}
		c.Requests = append(c.Requests, capture.Request{
			Host:            r.Host,
			Path:            r.Path,
			Status:          r.Status,
			BytesCompressed: r.BytesCompressed,
			BytesRaw:        r.BytesRaw,
		})
	}
	c.Cookies = append(c.Cookies, page.Cookies...)
	c.Storage = append(c.Storage, page.Storage...)
	c.ScreenshotText = page.ScreenshotText
	if b.opts.StoreDOM {
		c.DOM = page.DOM
	}
}

// splitSeed parses a seed URL into hostname and path.
func splitSeed(seed string) (host, path string, err error) {
	u, err := url.Parse(seed)
	if err != nil {
		return "", "", fmt.Errorf("browser: parse seed: %w", err)
	}
	if u.Host == "" {
		return "", "", fmt.Errorf("browser: seed %q has no host", seed)
	}
	host = strings.TrimPrefix(strings.ToLower(u.Hostname()), "www.")
	path = u.EscapedPath()
	if path == "" {
		path = "/"
	}
	return host, path, nil
}
