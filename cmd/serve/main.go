// Command serve exposes the synthetic web over real HTTP: one listener
// answers for every simulated hostname (websites, CMP endpoints, the
// consensu.org vendor list) by routing on the Host header. With -demo
// it also runs the paper's two wire-level steps against the server it
// started and exits: it downloads every published version of the
// Global Vendor List and verifies each by content hash (Section 3.4),
// then crawls a few sites through the HTTP stack and prints the CMP
// detections.
//
// Usage:
//
//	serve [-addr :8080] [-domains N] [-seed N] [-demo]
//
// Manual exploration:
//
//	curl -H 'Host: vendorlist.consensu.org' http://localhost:8080/v10/vendor-list.json
//	curl -H 'Host: www.<domain>' -H 'X-Sim-Day: 805' http://localhost:8080/
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/consensu"
	"repro/internal/detect"
	"repro/internal/gvl"
	"repro/internal/gvlclient"
	"repro/internal/simtime"
	"repro/internal/webserve"
	"repro/internal/webworld"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address")
		domains = flag.Int("domains", 10_000, "universe size")
		seed    = flag.Uint64("seed", 1, "root seed")
		demo    = flag.Bool("demo", false, "crawl a few sites over HTTP, print detections, and exit")
	)
	flag.Parse()

	world := webworld.New(webworld.Config{Seed: *seed, Domains: *domains})
	history := gvl.GenerateHistory(gvl.DefaultHistoryConfig())
	server := webserve.NewServer(world, history)
	// TCF consent endpoints on the CMP hosts: POST /consent and
	// GET /CookieAccess?user=… (the endpoint the paper queried).
	server.EnableConsentEndpoints(consensu.NewStore())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	fmt.Printf("Serving the synthetic web (%d domains) on %s\n", *domains, ln.Addr())

	if *demo {
		go http.Serve(ln, server) //nolint:errcheck // demo server dies with the process
		if err := runDemo(world, ln.Addr().String()); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Println("Route by Host header; simulation context via X-Sim-Day / X-Sim-Geo / X-Sim-Cloud.")
	fmt.Println("Ctrl-C shuts down gracefully.")

	srv := &http.Server{Handler: server}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "serve: shutdown:", err)
			os.Exit(1)
		}
		fmt.Println("serve: drained and stopped")
	}
}

// runDemo downloads and verifies the vendor-list history, then crawls
// the most popular CMP-using sites over HTTP.
func runDemo(world *webworld.World, addr string) error {
	ctx := context.Background()
	gvls := gvlclient.New("http://vendorlist.consensu.org", addr)
	start := time.Now()
	fetched, err := gvls.FetchAll(ctx)
	if err != nil {
		return err
	}
	verified, err := gvls.Verify(ctx, fetched.Manifest)
	if err != nil {
		return err
	}
	fmt.Printf("\nGVL history: %d versions downloaded, %d verified by content hash (%s)\n",
		len(fetched.Manifest), verified, time.Since(start).Round(time.Millisecond))

	crawler := webserve.NewCrawler(addr)
	det := detect.Default()
	day := simtime.Table1Snapshot
	fmt.Printf("\nDemo crawl at %s from the EU university vantage:\n", day)
	shown := 0
	for _, d := range world.Domains() {
		if shown >= 10 {
			break
		}
		if d.CMPAt(day) == cmps.None || d.Unreachable || d.RedirectTo != "" || d.Geo451 {
			continue
		}
		cap, err := crawler.Fetch("http://www."+d.Name+"/", day, capture.EUUniversity)
		if err != nil || cap.Failed {
			continue
		}
		fmt.Printf("  rank %6d  %-28s %d requests → detected %s (truth: %s)\n",
			d.Rank, d.Name, len(cap.Requests), det.DetectOne(cap), d.CMPAt(day))
		shown++
	}
	return nil
}
