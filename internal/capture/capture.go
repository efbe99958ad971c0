// Package capture defines the crawl-capture schema shared by the
// crawler, the detector, and the analyses, mirroring the data points
// Netograph collects for every capture (Section 3.2): HTTP requests,
// cookies, storage records, and a screenshot. Page contents are not
// stored for the social-media dataset; the DOM tree and full-page
// screenshots are stored for toplist crawls only.
package capture

import (
	"sync"

	"repro/internal/simtime"
	"repro/internal/webworld"
)

// Request is one logged HTTP request of a capture.
type Request struct {
	Host            string
	Path            string
	Status          int
	BytesCompressed int
	BytesRaw        int
}

// Vantage identifies the measurement origin of a capture.
type Vantage struct {
	// Name is a stable label, e.g. "us-cloud", "eu-cloud",
	// "eu-university".
	Name string
	Geo  webworld.Geo
	// Cloud marks public-cloud address space.
	Cloud bool
}

// Standard vantage points (Table 1 columns).
var (
	USCloud      = Vantage{Name: "us-cloud", Geo: webworld.GeoUS, Cloud: true}
	EUCloud      = Vantage{Name: "eu-cloud", Geo: webworld.GeoEU, Cloud: true}
	EUUniversity = Vantage{Name: "eu-university", Geo: webworld.GeoEU, Cloud: false}
)

// Capture is one browser crawl of one URL.
type Capture struct {
	SeedURL     string
	FinalURL    string
	FinalDomain string // effective second-level domain of the final URL
	Day         simtime.Day
	Vantage     Vantage
	// Config is the browser configuration label ("default",
	// "extended-timeout", "lang-de", "lang-en-gb").
	Config string
	Status int
	// Requests logs every HTTP request including the main document.
	Requests []Request
	Cookies  []webworld.Cookie
	// Storage lists the IndexedDB/LocalStorage/SessionStorage/WebSQL
	// records saved for the capture.
	Storage []webworld.StorageRecord
	// ScreenshotText is the OCR-equivalent visible text of the
	// above-the-fold screenshot.
	ScreenshotText string
	// DOM is the serialized DOM tree; only stored for toplist crawls.
	DOM string
	// TimedOut marks captures cut short by the crawler's timeouts.
	TimedOut bool
	// Failed marks captures that produced no usable response.
	Failed bool
	Error  string
}

// Sink consumes captures as they are produced. Implementations must be
// safe for concurrent use.
type Sink interface {
	Record(c *Capture)
}

// MultiSink fans captures out to several sinks.
type MultiSink []Sink

// Record implements Sink.
func (m MultiSink) Record(c *Capture) {
	for _, s := range m {
		s.Record(c)
	}
}

// MemStore retains all captures in memory, in recording order. It
// collects a fleet worker's chunk and a benchmark corpus, whose volume
// is small; the social-media pipeline streams into aggregating sinks
// instead.
type MemStore struct {
	mu       sync.Mutex
	captures []*Capture
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore {
	return &MemStore{}
}

// Record implements Sink.
func (s *MemStore) Record(c *Capture) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.captures = append(s.captures, c)
}

// All returns all captures. The returned slice is a snapshot copy; the
// captures themselves are shared.
func (s *MemStore) All() []*Capture {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Capture(nil), s.captures...)
}
