package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/browser"
	"repro/internal/capstore"
	"repro/internal/capstore/replica"
	"repro/internal/resilience"
	"repro/internal/webworld"
)

// wrap times an http.Handler at a layer boundary; classify names the
// boundary a request crosses and the trace it belongs to. A nil
// recorder is the untraced run, in which no middleware, transport or
// visitor wrapper is installed at all.
func (r *recorder) wrap(classify func(*http.Request) (name, trace string), next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name, trace := classify(req)
		defer r.startSized(name, trace, req.ContentLength)()
		next.ServeHTTP(w, req)
	})
}

// timedTransport times client round trips (request sent → response
// headers back).
type timedTransport struct {
	m    *recorder
	name string
	next http.RoundTripper
}

func (t timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	defer t.m.start(t.name, "")()
	return t.next.RoundTrip(r)
}

// timedVisitor times the crawl substrate behind a fleet worker.
type timedVisitor struct {
	m    *recorder
	next browser.Visitor
}

func (v timedVisitor) Visit(domain, path string, ctx webworld.VisitContext) (*webworld.Page, error) {
	defer v.m.start("crawler.visit", "")()
	return v.next.Visit(domain, path, ctx)
}

// node is one capd: a store, its ingester and compactor, and the HTTP
// surface cmd/capd mounts, behind a loopback listener.
type node struct {
	name    string
	dir     string
	store   *capstore.Store
	ing     *capstore.Ingester
	comp    *capstore.Compactor
	handler atomic.Value // http.Handler, swapped by reopen
	srv     *httptest.Server
	reads   atomic.Int64 // /query and /count requests served
}

func classifyNode(n *node) func(*http.Request) (string, string) {
	return func(r *http.Request) (string, string) {
		switch r.URL.Path {
		case "/ingest":
			return "capstore.ingest", ""
		case "/query", "/count":
			n.reads.Add(1)
			return "capstore.query", ""
		}
		return "capstore.segment", ""
	}
}

// mount builds the capd handler tree: /ingest outside the limiter, the
// resilient query surface under it.
func (n *node) mount() {
	mux := http.NewServeMux()
	if n.ing != nil {
		mux.Handle("/ingest", n.ing)
	}
	mux.Handle("/", capstore.NewResilientHandler(n.store, capstore.ServeConfig{Ingester: n.ing}))
	n.handler.Store(http.Handler(mux))
}

func newNode(dir, name string, m *recorder) (*node, error) {
	store, err := capstore.Create(dir, numShards)
	if err != nil {
		return nil, err
	}
	ing, err := capstore.NewIngester(store, capstore.IngestConfig{})
	if err != nil {
		store.Close()
		return nil, err
	}
	n := &node{name: name, dir: dir, store: store, ing: ing}
	n.mount()
	n.srv = httptest.NewServer(m.wrap(classifyNode(n), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.handler.Load().(http.Handler).ServeHTTP(w, r)
	})))
	return n, nil
}

// startCompactor runs the live background compactor, unpaced, as capd
// -compact does.
func (n *node) startCompactor(sz sizes) {
	n.comp = n.store.StartCompactor(capstore.CompactConfig{
		MinTailBytes: sz.MinTailBytes,
		Interval:     200 * time.Millisecond,
	})
}

func (n *node) stopCompactor() {
	if n.comp != nil {
		n.comp.Close()
		n.comp = nil
	}
}

// reopen is a capd restart: close the store and open it cold. The
// reopened node serves reads only — seeding a new ingester's
// idempotency index is a full scan that no replay step needs.
func (n *node) reopen(m *recorder) (time.Duration, error) {
	n.stopCompactor()
	end := m.start("capstore.close", "")
	err := n.store.Close()
	end()
	if err != nil {
		return 0, err
	}
	end = m.start("capstore.open", "")
	t0 := time.Now()
	store, err := capstore.Open(n.dir)
	d := time.Since(t0)
	end()
	if err != nil {
		return 0, err
	}
	n.store, n.ing = store, nil
	n.mount()
	return d, nil
}

func (n *node) close() {
	n.srv.Close()
	n.stopCompactor()
	n.store.Close()
}

// cluster is capring over three capds: the replicating writer, its
// reader, and the capring handler tree behind a loopback listener.
type cluster struct {
	dir    string
	sz     sizes
	nodes  []*node
	writer *replica.Writer
	front  *httptest.Server
	client *capstore.Client // speaks to the ring front, like a worker or capq
}

// The topology is the same at every size. ringSeed roots placement;
// fixed so every run of every seed places segments identically and
// placement skew is a property of the data.
const (
	numNodes  = 3
	numShards = 8
	leaseSize = 32
	ringSeed  = 11
)

func classifyRing(r *http.Request) (string, string) {
	switch r.URL.Path {
	case "/ingest":
		trace := ""
		if at := r.URL.Query().Get("at"); at != "" {
			trace = "at:" + at
		}
		return "replica.ingest", trace
	case "/query", "/count":
		return "replica.query", ""
	}
	return "replica.admin", ""
}

func newCluster(dir string, sz sizes, m *recorder) (*cluster, error) {
	c := &cluster{dir: dir, sz: sz}
	var cfgs []replica.NodeConfig
	for i := 0; i < numNodes; i++ {
		name := fmt.Sprintf("node-%d", i)
		n, err := newNode(filepath.Join(dir, name), name, m)
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		cfgs = append(cfgs, replica.NodeConfig{Name: name, URL: n.srv.URL})
	}
	w, err := replica.NewWriter(replica.Config{
		Nodes: cfgs, Shards: numShards, Seed: ringSeed, Replicas: 2, Quorum: 1,
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.writer = w
	limiter := resilience.NewHTTPLimiter(resilience.HTTPLimiterConfig{MaxInFlight: 64, Timeout: 30 * time.Second})
	outer := http.NewServeMux()
	outer.Handle("/healthz", replica.HealthzHandler(w))
	outer.Handle("/", limiter.Wrap(replica.Handler(w)))
	c.front = httptest.NewServer(m.wrap(classifyRing, outer))
	c.client = capstore.NewClient(c.front.URL)
	return c, nil
}

func (c *cluster) startCompactors() {
	for _, n := range c.nodes {
		n.startCompactor(c.sz)
	}
}

func (c *cluster) close() {
	if c.front != nil {
		c.front.Close()
	}
	if c.writer != nil {
		c.writer.Close()
	}
	for _, n := range c.nodes {
		n.close()
	}
	// Idle connections to the listeners just closed would otherwise
	// pile up in the shared transport across windows.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	os.RemoveAll(c.dir)
}

// source follows the ring for analyzed (see ringsource.go).
func (c *cluster) source() ringSource {
	clients := make(map[string]*capstore.Client, len(c.nodes))
	for _, n := range c.nodes {
		clients[n.name] = capstore.NewClient(n.srv.URL)
	}
	return ringSource{ring: c.writer.Ring(), shards: numShards, nodes: clients}
}

// diskBytes sums the regular files under every node directory. The
// compactors are live, so a temporary file may be renamed away between
// being listed and being examined; it is counted under its new name or
// not at all.
func (c *cluster) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(c.dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			var info fs.FileInfo
			if info, err = d.Info(); err == nil {
				total += info.Size()
			}
		}
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	})
	return total, err
}

// checkManifests holds the replica invariant: every placed segment of
// every node is exactly the baseline store's segment — same records,
// same bytes, same hash — whether or not it was compacted on the way.
func (c *cluster) checkManifests(base capstore.Manifest) error {
	for _, n := range c.nodes {
		got, err := n.store.Manifest()
		if err != nil {
			return fmt.Errorf("%s manifest: %w", n.name, err)
		}
		for _, s := range c.writer.Ring().SegmentsOf(n.name, numShards) {
			if got.Segments[s] != base.Segments[s] {
				return fmt.Errorf("%s segment %d is %+v, baseline has %+v", n.name, s, got.Segments[s], base.Segments[s])
			}
		}
	}
	return nil
}

// placementSkew is the busiest node's record count over the mean.
func (c *cluster) placementSkew() float64 {
	var max, sum float64
	for _, n := range c.nodes {
		l := float64(n.store.Len())
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(c.nodes)))
}

// views is analyzed: an engine, a follower over the ring, and the
// analytics handler behind a loopback listener.
type views struct {
	engine   *analytics.Engine
	follower *analytics.Follower
	srv      *httptest.Server
	cancel   context.CancelFunc
	done     chan struct{}
}

const followerPoll = 20 * time.Millisecond

// startViews boots analyzed against the cluster. Untraced, the
// follower runs its own loop; traced, the harness drives Sweep on the
// same tick so each sweep can be timed from outside.
func startViews(c *cluster, m *recorder) *views {
	v := &views{engine: analytics.NewEngine(analytics.Config{}), done: make(chan struct{})}
	v.follower = analytics.NewFollower(analytics.FollowerConfig{
		Source: c.source(), Engine: v.engine, PollInterval: followerPoll,
	})
	v.srv = httptest.NewServer(m.wrap(
		func(*http.Request) (string, string) { return "analytics.view", "" },
		analytics.NewHandler(analytics.HandlerConfig{Engine: v.engine, Follower: v.follower}, nil)))
	ctx, cancel := context.WithCancel(context.Background())
	v.cancel = cancel
	go func() {
		defer close(v.done)
		if m == nil {
			v.follower.Run(ctx) //nolint:errcheck // always ctx.Err()
			return
		}
		t := time.NewTicker(followerPoll)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				end := m.start("analytics.sweep", "")
				v.follower.Sweep() //nolint:errcheck // a transient source error is retried on the next tick, as Run does
				end()
			}
		}
	}()
	return v
}

func (v *views) close() {
	v.cancel()
	<-v.done
	v.srv.Close()
}

// get fetches one served view exactly as a client of analyzed sees it.
func (v *views) get(name string) ([]byte, error) {
	return httpGet(v.srv.URL + "/view/" + url.PathEscape(name))
}
