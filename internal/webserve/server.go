// Package webserve exposes the synthetic web over real HTTP. A single
// net/http server answers for every hostname of the simulated internet
// — websites, CMP endpoints (cdn.cookielaw.org, *.consensu.org, …) and
// third-party trackers — by routing on the request's Host header,
// exactly as a CDN edge would. The companion Crawler dials the server
// for every hostname (a DNS override, the standard technique for
// testing crawlers against a fixture web) and reconstructs captures
// from genuine HTTP traffic.
//
// Simulation context travels in headers: X-Sim-Day carries the
// simulated date (in reality: the wall clock), X-Sim-Geo the visitor's
// region (in reality: GeoIP on the source address), X-Sim-Cloud the
// address-space class (in reality: published cloud IP ranges). The
// serving logic itself is ordinary HTTP.
package webserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/cmps"
	"repro/internal/consensu"
	"repro/internal/gvl"
	"repro/internal/psl"
	"repro/internal/simtime"
	"repro/internal/tcf"
	"repro/internal/webworld"
)

// Context headers.
const (
	HeaderDay   = "X-Sim-Day"
	HeaderGeo   = "X-Sim-Geo"
	HeaderCloud = "X-Sim-Cloud"
)

// Server serves the synthetic web.
type Server struct {
	world *webworld.World
	// gvl, when set, is served at vendorlist.consensu.org.
	gvl *gvl.History
	// consents, when set, backs the CMP consent endpoints: POST
	// /consent records decisions, GET /CookieAccess returns the stored
	// global cookie — the endpoint the paper queried at
	// api.quantcast.mgr.consensu.org/CookieAccess.
	consents *consensu.Store
}

// NewServer returns a server over the world; history may be nil.
func NewServer(w *webworld.World, history *gvl.History) *Server {
	return &Server{world: w, gvl: history}
}

// EnableConsentEndpoints attaches a consent store to the CMP hosts.
func (s *Server) EnableConsentEndpoints(store *consensu.Store) {
	s.consents = store
}

// ctxFromRequest decodes the simulation headers.
func ctxFromRequest(r *http.Request) webworld.VisitContext {
	ctx := webworld.VisitContext{Day: simtime.Table1Snapshot, Geo: webworld.GeoEU}
	if v := r.Header.Get(HeaderDay); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			ctx.Day = simtime.Day(n)
		}
	}
	if r.Header.Get(HeaderGeo) == "US" {
		ctx.Geo = webworld.GeoUS
	}
	ctx.Cloud = r.Header.Get(HeaderCloud) == "1"
	return ctx
}

// ServeHTTP implements http.Handler, routing on the Host header.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	host := strings.ToLower(r.Host)
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	switch {
	case host == "vendorlist.consensu.org":
		s.serveVendorList(w, r)
		return
	case cmps.ByHostname(host) != cmps.None:
		s.serveCMPResource(w, r, cmps.ByHostname(host))
		return
	case isTrackerHost(host):
		w.Header().Set("Content-Type", "image/gif")
		w.Write([]byte("GIF89a tracking pixel"))
		return
	case host == "cdn-challenge.example.net":
		w.Header().Set("Content-Type", "application/javascript")
		w.Write([]byte("/* interstitial challenge */"))
		return
	}
	s.serveSite(w, r, host)
}

// isTrackerHost matches the unrelated third parties the synthetic web
// embeds.
func isTrackerHost(host string) bool {
	switch host {
	case "www.google-analytics.com", "securepubads.g.doubleclick.net",
		"connect.facebook.net", "cdn.jsdelivr.net", "static.hotjar.com":
		return true
	}
	return false
}

// serveSite renders a website page as HTML.
func (s *Server) serveSite(w http.ResponseWriter, r *http.Request, host string) {
	domain, err := psl.EffectiveTLDPlusOne(strings.TrimPrefix(host, "www."))
	if err != nil {
		domain = strings.TrimPrefix(host, "www.")
	}
	d := s.world.Domain(domain)
	if d == nil {
		http.NotFound(w, r)
		return
	}
	// Real HTTP redirect for alias domains; the crawler follows it.
	if d.RedirectTo != "" {
		target := "http://www." + d.RedirectTo + r.URL.Path
		http.Redirect(w, r, target, http.StatusMovedPermanently)
		return
	}
	ctx := ctxFromRequest(r)
	page, err := s.world.Visit(domain, r.URL.Path, ctx)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if page.Status != 200 {
		if page.Status == 0 {
			// No valid HTTP response: hijack-free approximation.
			http.Error(w, "invalid response", http.StatusInternalServerError)
			return
		}
		http.Error(w, page.ScreenshotText, page.Status)
		return
	}
	for _, c := range page.Cookies {
		http.SetCookie(w, &http.Cookie{Name: c.Name, Value: c.Value, Domain: c.Domain, Path: "/"})
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<!doctype html><html><head><title>%s</title>\n", domain)
	for _, res := range page.Resources {
		if res.Host == page.FinalHost {
			continue // first-party assets are inlined below
		}
		fmt.Fprintf(w, "<script src=\"http://%s%s\" data-start-ms=\"%d\"></script>\n",
			res.Host, res.Path, res.StartMS)
	}
	fmt.Fprintf(w, "</head><body>\n<!-- screenshot: %s -->\n%s\n</body></html>\n",
		page.ScreenshotText, page.DOM)
}

// serveCMPResource serves a CMP endpoint: dialog script, per-site
// config, and (when a consent store is attached) the consent-recording
// and CookieAccess endpoints of a TCF CMP.
func (s *Server) serveCMPResource(w http.ResponseWriter, r *http.Request, id cmps.ID) {
	switch {
	case r.URL.Path == "/CookieAccess" && s.consents != nil:
		s.serveCookieAccess(w, r, id)
	case r.URL.Path == "/consent" && r.Method == http.MethodPost && s.consents != nil:
		s.serveConsentPost(w, r, id)
	case strings.HasSuffix(r.URL.Path, ".json"):
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"cmp":%q,"tcf":%t}`, id.String(), id.ImplementsTCF())
	default:
		w.Header().Set("Content-Type", "application/javascript")
		fmt.Fprintf(w, "/* %s consent dialog framework */ window.__cmp=function(){};", id)
	}
}

// serveCookieAccess returns a user's stored global consent cookie —
// "manually fetching https://api.quantcast.mgr.consensu.org/
// CookieAccess, which returns the user's existing Quantcast TCF
// cookie" (Section 3.2).
func (s *Server) serveCookieAccess(w http.ResponseWriter, r *http.Request, id cmps.ID) {
	if !id.ImplementsTCF() {
		http.Error(w, "CMP does not store global TCF cookies", http.StatusNotFound)
		return
	}
	user := r.URL.Query().Get("user")
	if user == "" {
		http.Error(w, "missing user", http.StatusBadRequest)
		return
	}
	cookie, err := s.consents.CookieAccess(user)
	if err != nil {
		http.Error(w, "no consent cookie", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprint(w, cookie)
}

// consentPost is the POST /consent request body.
type consentPost struct {
	Site     string `json:"site"`
	User     string `json:"user"`
	Decision string `json:"decision"` // "accept" or "reject"
}

// serveConsentPost records a dialog decision made on a site into the
// global store, honouring the site's (possibly defective)
// implementation: IgnoresOptOut sites store a full grant even for
// explicit rejections.
func (s *Server) serveConsentPost(w http.ResponseWriter, r *http.Request, id cmps.ID) {
	if !id.ImplementsTCF() {
		http.Error(w, "CMP does not store global TCF cookies", http.StatusNotFound)
		return
	}
	var req consentPost
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<10)).Decode(&req); err != nil {
		http.Error(w, "malformed request: "+err.Error(), http.StatusBadRequest)
		return
	}
	d := s.world.Domain(req.Site)
	if d == nil || req.User == "" {
		http.Error(w, "unknown site or missing user", http.StatusBadRequest)
		return
	}
	ctx := ctxFromRequest(r)
	grant := req.Decision == "accept" || d.IgnoresOptOut
	c := tcf.New(ctx.Day.Time())
	c.MaxVendorID = 500
	if grant {
		c.SetAllPurposes(true)
		c.SetAllVendors(500, true)
	}
	encoded, err := c.Encode()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err := s.consents.Set(req.User, encoded); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// serveVendorList mirrors vendorlist.consensu.org: /vendor-list.json
// is the latest version published by the request's simulated day,
// /vN/vendor-list.json is version N, and any other path is 404.
func (s *Server) serveVendorList(w http.ResponseWriter, r *http.Request) {
	if s.gvl == nil || len(s.gvl.Versions) == 0 {
		http.Error(w, "no vendor list configured", http.StatusNotFound)
		return
	}
	var list *gvl.List
	if r.URL.Path == "/vendor-list.json" {
		list = s.listForDay(ctxFromRequest(r).Day)
	} else if vn, ok := listVersion(r.URL.Path); ok {
		for i := range s.gvl.Versions {
			if s.gvl.Versions[i].VendorListVersion == vn {
				list = &s.gvl.Versions[i]
				break
			}
		}
	}
	if list == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(list); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// listVersion parses a versioned vendor-list path, /vN/vendor-list.json,
// accepting N only as a canonical positive decimal: no sign, no leading
// zero, nothing before or after.
func listVersion(path string) (int, bool) {
	digits, ok := strings.CutPrefix(path, "/v")
	if ok {
		digits, ok = strings.CutSuffix(digits, "/vendor-list.json")
	}
	if !ok || digits == "" || digits[0] == '0' {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil
}

// listForDay returns the latest version published on or before day.
func (s *Server) listForDay(day simtime.Day) *gvl.List {
	best := &s.gvl.Versions[0]
	for i := range s.gvl.Versions {
		l := &s.gvl.Versions[i]
		if !l.LastUpdated.After(day.Time()) {
			best = l
		}
	}
	return best
}
