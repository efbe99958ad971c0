// Command capq queries a persisted capture database, mirroring
// Netograph's custom query API. It reads either a store directory
// written by `crawl -store` or a live capd server.
//
// Usage:
//
//	capq -store capdir | -server http://host:8650
//	     [-domain D] [-from YYYY-MM-DD] [-to YYYY-MM-DD]
//	     [-vantage us-cloud|eu-cloud|eu-university] [-host H] [-failed]
//	     [-count] [-cmp] [-n N] [-stats]
//
// -stats skips the query entirely and prints the store's shape: totals
// plus one line per shard with its pack/tail record and byte split and
// the open path the shard took ("indexed" = pack footer indexes were
// loaded, "scan" = full segment scan).
//
// Examples:
//
//	capq -store capdir -count -host cdn.cookielaw.org   # OneTrust captures
//	capq -store capdir -domain example.com -cmp         # indexed lookup
//	capq -server http://127.0.0.1:8650 -count -host cdn.cookielaw.org
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/detect"
	"repro/internal/simtime"
)

func main() {
	var (
		storeDir  = flag.String("store", "", "sharded capture store directory")
		server    = flag.String("server", "", "base URL of a running capd (e.g. http://127.0.0.1:8650)")
		domain    = flag.String("domain", "", "filter by final registrable domain")
		fromStr   = flag.String("from", "", "filter: captures on or after this date")
		toStr     = flag.String("to", "", "filter: captures on or before this date")
		vantage   = flag.String("vantage", "", "filter by vantage name")
		host      = flag.String("host", "", "filter: captures that requested this host")
		failed    = flag.Bool("failed", false, "include failed captures")
		countOnly = flag.Bool("count", false, "print only the match count")
		withCMP   = flag.Bool("cmp", false, "annotate each capture with the detected CMP")
		limit     = flag.Int("n", 50, "maximum captures to print (0 = unlimited)")
		stats     = flag.Bool("stats", false, "print store shape (per-shard pack/tail split and open path) instead of querying")
	)
	flag.Parse()
	if (*storeDir == "") == (*server == "") {
		fmt.Fprintln(os.Stderr, "capq: exactly one of -store, -server is required")
		flag.Usage()
		os.Exit(2)
	}

	if *stats {
		var st capstore.Stats
		var err error
		if *server != "" {
			cl := capstore.NewClient(*server)
			if st, err = cl.Stats(); err == nil {
				// A serving node also knows its ingest commit cursor;
				// print it beside the store shape so operators can
				// compare against analyzed view lag.
				if h, herr := cl.Health(); herr == nil && h.Ingest != nil {
					fmt.Printf("ingest: cursor %d  accepted %d  duplicates %d  shed %d  pending %d\n",
						h.Ingest.NextSeq, h.Ingest.Accepted, h.Ingest.Duplicates,
						h.Ingest.Shed, h.Ingest.PendingBatches)
				}
			}
		} else {
			var s *capstore.Store
			if s, err = capstore.Open(*storeDir); err == nil {
				st = s.Stats()
				s.Close()
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "capq:", err)
			os.Exit(1)
		}
		printStats(st)
		return
	}

	q := capturedb.Query{
		Domain:        *domain,
		Vantage:       *vantage,
		RequestHost:   *host,
		IncludeFailed: *failed,
	}
	if *fromStr != "" {
		q.From = parseDay(*fromStr)
	}
	if *toStr != "" {
		q.To, q.HasTo = parseDay(*toStr), true
	}

	det := detect.Default()
	n := 0
	print := func(c *capture.Capture) bool {
		n++
		if *countOnly {
			return true
		}
		line := fmt.Sprintf("%s  %-28s %-13s status=%d requests=%d",
			c.Day, c.FinalDomain, c.Vantage.Name, c.Status, len(c.Requests))
		if c.Failed {
			line += "  FAILED: " + c.Error
		}
		if *withCMP {
			line += fmt.Sprintf("  cmp=%s", det.DetectOne(c))
		}
		fmt.Println(line)
		return *limit == 0 || n < *limit
	}

	var err error
	if *server != "" {
		cl := capstore.NewClient(*server)
		if *countOnly {
			n, err = cl.Count(q)
		} else {
			err = cl.Query(q, *limit, 0, print)
		}
	} else {
		var s *capstore.Store
		s, err = capstore.Open(*storeDir)
		if err == nil {
			if *countOnly {
				n, err = s.Count(q)
			} else {
				err = s.Query(q, print)
			}
			s.Close()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "capq:", err)
		os.Exit(1)
	}
	if *countOnly {
		fmt.Println(n)
	} else if *limit > 0 && n >= *limit {
		fmt.Printf("… (stopped after %d matches; raise -n)\n", *limit)
	}
}

// printStats renders the store-shape snapshot: totals, then one line
// per shard with its pack/tail split and which open path it took.
func printStats(st capstore.Stats) {
	// Sum the pack split from per-shard state, not the lifetime
	// counters: a freshly opened -store has served no compactions this
	// process, but its packs are on disk.
	var packedRecs, packedBytes int64
	for _, sh := range st.Shards {
		packedRecs += sh.PackedRecords
		packedBytes += sh.PackedBytes
	}
	fmt.Printf("records %d  shards %d  packs %d  packed %d records / %d bytes  (compactions this process: %d)\n",
		st.Records, len(st.Shards), st.Packs, packedRecs, packedBytes, st.Compactions)
	fmt.Printf("indexes: %d domains, %d hosts, %d host postings; repairs: %d torn tails, %d torn packs, %d overlaps\n",
		st.IndexedDomains, st.IndexedHosts, st.HostPostings, st.TruncatedTails, st.TornPacks, st.OverlapRepairs)
	for _, sh := range st.Shards {
		fmt.Printf("%s  open=%-7s packs=%-3d packed=%d/%dB  tail=%d/%dB  records=%d  days=[%d,%d]\n",
			sh.Segment, sh.OpenPath, sh.Packs, sh.PackedRecords, sh.PackedBytes,
			sh.TailRecords, sh.TailBytes, sh.Records, sh.MinDay, sh.MaxDay)
	}
}

func parseDay(s string) simtime.Day {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "capq: bad date %q: %v\n", s, err)
		os.Exit(2)
	}
	return simtime.FromTime(t)
}
