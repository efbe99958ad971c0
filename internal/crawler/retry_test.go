package crawler

import (
	"errors"
	"testing"

	"repro/internal/browser"
	"repro/internal/capture"
	"repro/internal/simtime"
	"repro/internal/webworld"
)

// findTransient locates a reachable domain with an outage on some day.
func findTransient(w *webworld.World) (*webworld.Domain, simtime.Day) {
	for _, d := range w.Domains() {
		if d.Unreachable || d.NoValidResponse || d.HTTPError || d.RedirectTo != "" {
			continue
		}
		for day := simtime.Day(100); day < 130; day++ {
			if w.TransientDown(d.Name, day) {
				return d, day
			}
		}
	}
	return nil, 0
}

func TestTransientFailureSurfaces(t *testing.T) {
	w := webworld.New(webworld.Config{Seed: 1, Domains: 2_000})
	d, day := findTransient(w)
	if d == nil {
		t.Fatal("no transient outage found in 2000×30 domain-days (rate 2%)")
	}
	_, err := w.Visit(d.Name, "/", webworld.VisitContext{Day: day, Geo: webworld.GeoEU})
	if !errors.Is(err, webworld.ErrTemporarilyDown) {
		t.Fatalf("want ErrTemporarilyDown, got %v", err)
	}
	// A browser load on the outage day records a failed capture…
	b := browser.New(w, browser.Options{})
	cap := b.Load("https://www."+d.Name+"/", day, capture.EUCloud)
	if !cap.Failed {
		t.Fatal("outage must fail the capture")
	}
	// …and the outage is transient: another day succeeds.
	recovered := false
	for off := simtime.Day(1); off <= 7; off++ {
		if !w.TransientDown(d.Name, day+off) {
			c2 := b.Load("https://www."+d.Name+"/", day+off, capture.EUCloud)
			recovered = !c2.Failed
			break
		}
	}
	if !recovered {
		t.Error("transient outage did not recover within a week")
	}
}
