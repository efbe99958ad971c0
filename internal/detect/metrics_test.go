package detect

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/obs"
)

func reqCapture(domain string, hosts ...string) *capture.Capture {
	c := &capture.Capture{FinalDomain: domain, Day: 12}
	for _, h := range hosts {
		c.Requests = append(c.Requests, capture.Request{Host: h})
	}
	return c
}

func TestDetectorMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	d := Default()
	d.SetMetrics(NewMetrics(reg))

	one := reqCapture("a.com", "www.a.com", cmps.OneTrust.Hostname())
	multi := reqCapture("b.com", cmps.Quantcast.Hostname(), cmps.OneTrust.Hostname())
	none := reqCapture("c.com", "www.c.com")

	if got := d.DetectOne(one); got != cmps.OneTrust {
		t.Fatalf("DetectOne = %v", got)
	}
	d.DetectMask(multi)
	d.Detect(none)
	d.Detect(multi)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`detect_captures_total{cmp="OneTrust"} 1`,
		`detect_captures_total{cmp="Quantcast"} 2`,
		`detect_captures_total{cmp="none"} 1`,
		"detect_multi_cmp_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Errorf("invalid exposition: %v", err)
	}
}

// The hot paths must stay allocation-free with telemetry off and
// allocation-free per classification with counters attached.
func TestDetectHotPathAllocs(t *testing.T) {
	c := reqCapture("a.com", "x.com", cmps.TrustArc.Hostname())
	for name, d := range map[string]*Detector{
		"no-metrics":   Default(),
		"with-metrics": func() *Detector { d := Default(); d.SetMetrics(NewMetrics(obs.NewRegistry())); return d }(),
	} {
		if n := testing.AllocsPerRun(100, func() { d.DetectOne(c) }); n != 0 {
			t.Errorf("%s: DetectOne allocs %v, want 0", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { d.DetectMask(c) }); n != 0 {
			t.Errorf("%s: DetectMask allocs %v, want 0", name, n)
		}
	}
}
