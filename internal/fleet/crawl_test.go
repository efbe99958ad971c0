package fleet

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/browser"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/crawler"
	"repro/internal/resilience/chaos"
	"repro/internal/webworld"
)

// barrierVisitor holds each of the first k visits until k of them are
// held at once. A crawl that visits one item at a time never gets
// there: each held visit is let through at the deadline, and inFlight
// tells how many were ever held together.
type barrierVisitor struct {
	up       browser.Visitor
	k        int
	deadline time.Time

	mu       sync.Mutex
	arrived  int
	holding  int
	inFlight int // most visits held at once
	all      chan struct{}
}

func (v *barrierVisitor) Visit(domain, path string, ctx webworld.VisitContext) (*webworld.Page, error) {
	v.mu.Lock()
	v.arrived++
	held := v.arrived <= v.k
	if held {
		v.holding++
		v.inFlight = max(v.inFlight, v.holding)
		if v.holding == v.k {
			close(v.all)
		}
	}
	v.mu.Unlock()
	if held {
		select {
		case <-v.all:
		case <-time.After(time.Until(v.deadline)):
		}
		v.mu.Lock()
		v.holding--
		v.mu.Unlock()
	}
	return v.up.Visit(domain, path, ctx)
}

// TestCrawlItemsOverlapsWaits: a lease's items are visited
// concurrently, so one item's politeness wait or retry backoff runs
// beside other items' visits instead of ahead of them.
func TestCrawlItemsOverlapsWaits(t *testing.T) {
	const k = 4
	w := fleetWorld()
	items := WorkFromFeed(fleetFeed(w), 0, 0)[:16]
	v := &barrierVisitor{up: w, k: k, deadline: time.Now().Add(5 * time.Second), all: make(chan struct{})}
	sink := capture.NewMemStore()
	stats := CrawlItems(context.Background(), w, fleetRun, crawler.StreamConfig{Visitor: v}, items, sink).Stats()
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.inFlight < k {
		t.Fatalf("at most %d visits were ever in flight at once, want %d: the lease is crawled one item at a time", v.inFlight, k)
	}
	if stats.Submitted != int64(len(items)) {
		t.Fatalf("submitted %d of %d items", stats.Submitted, len(items))
	}
}

// refuseSome fails every visit to a domain whose name has a length
// divisible by 4 with an error the crawler treats as terminal.
type refuseSome struct{ up browser.Visitor }

func (v refuseSome) Visit(domain, path string, ctx webworld.VisitContext) (*webworld.Page, error) {
	if len(domain)%4 == 0 {
		return nil, errors.New("connection refused")
	}
	return v.up.Visit(domain, path, ctx)
}

// TestCrawlItemsItemOrder: whatever order the browsers finish in, the
// sink receives the captures in item order, and the bytes do not
// depend on the scheduler — with retries, terminal failures and dead
// letters mixed into the window.
func TestCrawlItemsItemOrder(t *testing.T) {
	w := fleetWorld()
	items := WorkFromFeed(fleetFeed(w), 0, fleetDays-1)
	index := make(map[itemKey]int, len(items))
	for i, it := range items {
		index[itemKey{it.URL, it.Day}] = i
	}
	crawl := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		inj := chaos.New(chaos.Config{Seed: 5, FiveXXRate: 0.2, DropRate: 0.1, LatencyRate: 0.2})
		sink := capture.NewMemStore()
		p := CrawlItems(context.Background(), w, fleetRun, crawler.StreamConfig{Visitor: refuseSome{inj.Visitor(w)}}, items, sink)
		st := p.Stats()
		if st.Retries == 0 || st.FailedRecorded == 0 || st.DeadLettered == 0 {
			t.Fatalf("GOMAXPROCS=%d: want retries, terminal failures and dead letters mixed, got %+v", procs, st)
		}
		seen := make(map[int]bool, len(items))
		last := -1
		var out bytes.Buffer
		for _, c := range sink.All() {
			i, ok := index[itemKey{c.SeedURL, c.Day}]
			if !ok || i <= last {
				t.Fatalf("GOMAXPROCS=%d: capture of %s on %s (item %d, known %v) follows item %d", procs, c.SeedURL, c.Day, i, ok, last)
			}
			last = i
			seen[i] = true
			line, err := capturedb.Encode(c)
			if err != nil {
				t.Fatal(err)
			}
			out.Write(line)
		}
		for _, e := range p.DeadLetters().Entries() {
			i := index[itemKey{e.URL, e.Day}]
			if seen[i] {
				t.Fatalf("GOMAXPROCS=%d: item %d both captured and dead-lettered", procs, i)
			}
			seen[i] = true
		}
		if len(seen) != len(items) {
			t.Fatalf("GOMAXPROCS=%d: %d of %d items reached a terminal", procs, len(seen), len(items))
		}
		return out.Bytes()
	}
	one, eight := crawl(1), crawl(8)
	if !bytes.Equal(one, eight) {
		t.Fatalf("captures differ between GOMAXPROCS 1 (%d bytes) and 8 (%d bytes)", len(one), len(eight))
	}
}
