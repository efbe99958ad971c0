package webserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/detect"
	"repro/internal/gvl"
	"repro/internal/simtime"
	"repro/internal/webworld"
)

func startServer(t *testing.T) (*webworld.World, *gvl.History, *httptest.Server) {
	t.Helper()
	world := webworld.New(webworld.Config{Seed: 1, Domains: 8_000})
	history := gvl.GenerateHistory(gvl.HistoryConfig{Seed: 1, Versions: 20, InitialVendors: 50, PeakVendors: 120})
	ts := httptest.NewServer(NewServer(world, history))
	t.Cleanup(ts.Close)
	return world, history, ts
}

func serverAddr(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

func findSite(w *webworld.World, day simtime.Day, pred func(*webworld.Domain) bool) *webworld.Domain {
	for _, d := range w.Domains() {
		if pred(d) && !d.Unreachable && !d.NoValidResponse && !d.HTTPError && d.RedirectTo == "" && !d.Geo451 {
			return d
		}
	}
	return nil
}

func TestHTTPCrawlDetectsCMP(t *testing.T) {
	world, _, ts := startServer(t)
	day := simtime.Table1Snapshot
	d := findSite(world, day, func(d *webworld.Domain) bool {
		return d.CMPAt(day) != cmps.None && !d.AntiBot && !d.EUOnlyEmbed && !d.SlowLoad
	})
	if d == nil {
		t.Skip("no suitable site")
	}
	crawler := NewCrawler(serverAddr(t, ts))
	cap, err := crawler.Fetch("http://www."+d.Name+"/", day, capture.EUUniversity)
	if err != nil {
		t.Fatal(err)
	}
	if cap.Failed {
		t.Fatalf("crawl failed: %s", cap.Error)
	}
	if cap.FinalDomain != d.Name || cap.Status != 200 {
		t.Fatalf("capture: domain=%q status=%d", cap.FinalDomain, cap.Status)
	}
	det := detect.Default()
	if got := det.DetectOne(cap); got != d.CMPAt(day) {
		t.Errorf("HTTP detection = %v, ground truth %v", got, d.CMPAt(day))
	}
	if !strings.Contains(cap.ScreenshotText, "") || cap.DOM == "" {
		t.Error("screenshot/DOM not reconstructed from HTML")
	}
}

func TestHTTPCrawlNoCMPSite(t *testing.T) {
	world, _, ts := startServer(t)
	day := simtime.Table1Snapshot
	d := findSite(world, day, func(d *webworld.Domain) bool { return len(d.Episodes) == 0 })
	if d == nil {
		t.Skip("no CMP-less site")
	}
	crawler := NewCrawler(serverAddr(t, ts))
	cap, err := crawler.Fetch("http://www."+d.Name+"/", day, capture.EUCloud)
	if err != nil {
		t.Fatal(err)
	}
	if got := detect.Default().DetectOne(cap); got != cmps.None {
		t.Errorf("false positive: %v", got)
	}
}

func TestHTTPRedirectFollowed(t *testing.T) {
	world, _, ts := startServer(t)
	var d *webworld.Domain
	for _, cand := range world.Domains() {
		if cand.RedirectTo != "" {
			if target := world.Domain(cand.RedirectTo); target != nil && !target.Unreachable &&
				!target.HTTPError && !target.NoValidResponse && !target.Geo451 {
				d = cand
				break
			}
		}
	}
	if d == nil {
		t.Skip("no redirect domain")
	}
	crawler := NewCrawler(serverAddr(t, ts))
	cap, err := crawler.Fetch("http://www."+d.Name+"/", simtime.Table1Snapshot, capture.EUUniversity)
	if err != nil {
		t.Fatal(err)
	}
	if cap.Failed {
		t.Fatalf("crawl failed: %s", cap.Error)
	}
	if cap.FinalDomain == d.Name {
		t.Errorf("redirect not followed: final=%q", cap.FinalDomain)
	}
	// The chain is logged: first request got a 301.
	if len(cap.Requests) < 2 || cap.Requests[0].Status != http.StatusMovedPermanently {
		t.Errorf("redirect chain not logged: %+v", cap.Requests[:1])
	}
}

func TestHTTPAntiBotVantage(t *testing.T) {
	world, _, ts := startServer(t)
	day := simtime.Table1Snapshot
	d := findSite(world, day, func(d *webworld.Domain) bool {
		return d.AntiBot && d.CMPAt(day) != cmps.None
	})
	if d == nil {
		t.Skip("no anti-bot site")
	}
	crawler := NewCrawler(serverAddr(t, ts))
	cloud, err := crawler.Fetch("http://www."+d.Name+"/", day, capture.EUCloud)
	if err != nil {
		t.Fatal(err)
	}
	if cloud.Status != http.StatusForbidden {
		t.Errorf("cloud crawl status = %d, want 403 interstitial", cloud.Status)
	}
	uni, err := crawler.Fetch("http://www."+d.Name+"/", day, capture.EUUniversity)
	if err != nil {
		t.Fatal(err)
	}
	if uni.Status != http.StatusOK {
		t.Errorf("university crawl status = %d", uni.Status)
	}
}

func TestHTTPGeoHeaders(t *testing.T) {
	world, _, ts := startServer(t)
	day := simtime.Table1Snapshot
	d := findSite(world, day, func(d *webworld.Domain) bool {
		return d.EUOnlyEmbed && d.USVisibleFrom == 0 && d.CMPAt(day) != cmps.None && !d.AntiBot && !d.SlowLoad
	})
	if d == nil {
		t.Skip("no EU-only site")
	}
	crawler := NewCrawler(serverAddr(t, ts))
	det := detect.Default()
	eu, _ := crawler.Fetch("http://www."+d.Name+"/", day, capture.EUUniversity)
	us, _ := crawler.Fetch("http://www."+d.Name+"/", day, capture.USCloud)
	if det.DetectOne(eu) == cmps.None {
		t.Error("EU crawl must see the CMP")
	}
	if us.Status == http.StatusOK && det.DetectOne(us) != cmps.None {
		t.Error("US crawl must not see an EU-only CMP")
	}
}

// TestVendorListEndpoint: exactly /vendor-list.json is the latest list
// published by the request's day and /vN/vendor-list.json, N a
// canonical positive decimal, is version N whatever the day; every
// other path on the vendor-list host is 404, not a list a content-hash
// check would then vouch for.
func TestVendorListEndpoint(t *testing.T) {
	_, history, ts := startServer(t)
	last := simtime.Day(simtime.NumDays - 1)
	latest := history.Versions[len(history.Versions)-1].VendorListVersion
	for _, tc := range []struct {
		path    string
		day     simtime.Day
		version int // 0: 404
	}{
		{"/vendor-list.json", last, latest},
		{"/v5/vendor-list.json", 100, 5},
		{"/v20/vendor-list.json", last, 20},
		{"/v21/vendor-list.json", last, 0},
		{"/v999/vendor-list.json", 100, 0},
		{"/v0/vendor-list.json", last, 0},
		{"/v07/vendor-list.json", last, 0},
		{"/v+7/vendor-list.json", last, 0},
		{"/v-7/vendor-list.json", last, 0},
		{"/v/vendor-list.json", last, 0},
		{"/v7x/vendor-list.json", last, 0},
		{"/v7/vendor-list.jsonXYZ", last, 0},
		{"/v7/vendor-list.json/extra", last, 0},
		{"/v99999999999999999999/vendor-list.json", last, 0},
		{"/vendor-list.jsonXYZ", last, 0},
		{"/x/vendor-list.json", last, 0},
		{"/", last, 0},
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+tc.path, nil)
		req.Host = "vendorlist.consensu.org"
		req.Header.Set(HeaderDay, fmt.Sprint(int(tc.day)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var list gvl.List
		derr := json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		switch {
		case tc.version == 0 && resp.StatusCode != http.StatusNotFound:
			t.Errorf("%s: status %d, want 404", tc.path, resp.StatusCode)
		case tc.version != 0 && (resp.StatusCode != http.StatusOK || derr != nil || list.VendorListVersion != tc.version):
			t.Errorf("%s: status %d, version %d (%v), want 200 and version %d",
				tc.path, resp.StatusCode, list.VendorListVersion, derr, tc.version)
		}
	}
}

func TestUnknownHostIs404(t *testing.T) {
	_, _, ts := startServer(t)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/", nil)
	req.Host = "www.never-registered.example"
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

// TestHTTPvsSimulatedBrowserAgreement: the HTTP pipeline and the
// simulated browser must classify the same sites identically.
func TestHTTPvsSimulatedBrowserAgreement(t *testing.T) {
	world, _, ts := startServer(t)
	day := simtime.Table1Snapshot
	crawler := NewCrawler(serverAddr(t, ts))
	det := detect.Default()
	checked := 0
	for _, d := range world.Domains() {
		if checked >= 40 {
			break
		}
		if d.Unreachable || d.NoValidResponse || d.HTTPError || d.Geo451 || d.RedirectTo != "" || d.SlowLoad {
			continue
		}
		checked++
		cap, err := crawler.Fetch("http://www."+d.Name+"/", day, capture.EUUniversity)
		if err != nil || cap.Failed {
			t.Fatalf("%s: %v %s", d.Name, err, cap.Error)
		}
		httpGot := det.DetectOne(cap)
		want := d.CMPAt(day)
		if d.EUOnlyEmbed && d.USVisibleFrom == 0 {
			// EU university crawl sees EU-only CMPs; nothing changes.
			_ = want
		}
		if httpGot != want {
			// Bare landing pages never exist (index 0 is never bare),
			// so disagreement is a real bug.
			t.Errorf("%s: http=%v truth=%v", d.Name, httpGot, want)
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}
