package crawler

import (
	"repro/internal/capture"
	"repro/internal/rng"
	"repro/internal/simtime"
)

// Vantage assignment for the social-media pipeline: each URL is crawled
// from the US or EU cloud with equal probability ("each URL is randomly
// assigned ... 50% of URLs are crawled from within the EU",
// Section 3.4). The draw is keyed by (URL, day) on a dedicated rng
// stream, so the assignment is a pure function of the root seed and the
// share — independent of worker count, submission order, retries, and
// of which component performs the crawl. Every StreamPlatform, in
// process or on a fleet worker, draws through these two helpers, which
// is what lets a distributed fleet reproduce a single-process run byte
// for byte.

// VantageSource derives the dedicated vantage stream for a root seed.
// Every pipeline that wants to agree on vantage assignment must derive
// its source here rather than reusing a component-private stream.
func VantageSource(seed uint64) *rng.Source {
	return rng.New(seed).Derive("vantage")
}

// PickVantage assigns the capture vantage for one share.
func PickVantage(src *rng.Source, url string, day simtime.Day) capture.Vantage {
	if src.Bool(0.5, "vantage", url, day.String()) {
		return capture.EUCloud
	}
	return capture.USCloud
}
