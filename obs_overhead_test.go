//go:build obsoverhead

package repro

import (
	"flag"
	"math"
	"testing"
)

// The telemetry-overhead gate: on each hot path the live recorder may
// cost at most overheadBound times the no-op recorder. Each side runs
// overheadRuns times at overheadBenchTime, the two sides alternating
// (nop first in even rounds, live first in odd ones) so drift in
// machine speed lands on both, and keeps its fastest run, which
// filters scheduler and frequency noise out of the ratio.
const (
	overheadRuns      = 4
	overheadBenchTime = "1s"
	overheadBound     = 1.05
)

// TestTelemetryOverhead is `make obs-overhead`. The obsoverhead build
// tag keeps it out of `go test ./...`: it takes about half a minute of
// dedicated CPU and judges wall time, which a loaded test run cannot.
func TestTelemetryOverhead(t *testing.T) {
	// testing.Benchmark sizes its runs from the -test.benchtime flag.
	if err := flag.Set("test.benchtime", overheadBenchTime); err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		name      string
		nop, live func(*testing.B)
	}{
		{"DetectOne", BenchmarkDetectOneNop, BenchmarkDetectOne},
		{"StreamVisit",
			func(b *testing.B) { benchStreamVisit(b, false) },
			func(b *testing.B) { benchStreamVisit(b, true) }},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			nop, live := math.Inf(1), math.Inf(1)
			for i := 0; i < overheadRuns; i++ {
				if i%2 == 0 {
					nop = math.Min(nop, nsPerOp(t, p.nop))
					live = math.Min(live, nsPerOp(t, p.live))
				} else {
					live = math.Min(live, nsPerOp(t, p.live))
					nop = math.Min(nop, nsPerOp(t, p.nop))
				}
			}
			ratio := live / nop
			t.Logf("nop %.1f ns/op, live %.1f ns/op: live/nop %.3f (bound %.2f)", nop, live, ratio, overheadBound)
			if ratio > overheadBound {
				t.Errorf("live recorder costs %.1f%% over the no-op recorder, bound %.0f%%",
					100*(ratio-1), 100*(overheadBound-1))
			}
		})
	}
}

// nsPerOp runs f as a benchmark and returns its unrounded time per op.
func nsPerOp(t *testing.T, f func(*testing.B)) float64 {
	t.Helper()
	r := testing.Benchmark(f)
	if r.N == 0 {
		t.Fatal("benchmark failed")
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}
