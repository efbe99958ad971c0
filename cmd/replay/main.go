// Command replay re-runs the detection and presence pipeline over a
// persisted capture database (written by `crawl -out`), without
// touching the synthetic web: the workflow of an analyst who has the
// capture archive but not the crawling infrastructure — which is
// exactly the position the paper's authors were in relative to the
// Netograph platform they queried.
//
// Usage:
//
//	replay -file captures.jsonl [-at YYYY-MM-DD] [-top N]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/cmps"
	"repro/internal/detect"
	"repro/internal/interp"
	"repro/internal/simtime"
)

func main() {
	var (
		file  = flag.String("file", "", "capture JSONL file (required)")
		atStr = flag.String("at", "", "presence snapshot date (default: last captured day)")
		top   = flag.Int("top", 20, "print the N most-captured CMP domains")
	)
	flag.Parse()
	if *file == "" {
		flag.Usage()
		os.Exit(2)
	}

	fold := analysis.NewPresenceFold(detect.Default(), interp.Options{})
	var lastDay simtime.Day
	n := 0
	err := capturedb.ScanFile(*file, capturedb.Query{}, func(c *capture.Capture) bool {
		fold.Fold(c)
		if c.Day > lastDay {
			lastDay = c.Day
		}
		n++
		return true
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
	fmt.Printf("Replayed %d captures of %d domains (last day %s)\n", n, fold.NumDomains(), lastDay)

	at := lastDay
	if *atStr != "" {
		t, err := time.Parse("2006-01-02", *atStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "replay: bad -at date:", err)
			os.Exit(2)
		}
		at = simtime.FromTime(t)
	}

	db := fold.Presence()
	counts := map[cmps.ID]int{}
	type row struct {
		domain string
		cmp    cmps.ID
	}
	var rows []row
	for _, domain := range db.Domains() {
		if id := db.CMPAt(domain, at); id != cmps.None {
			counts[id]++
			rows = append(rows, row{domain, id})
		}
	}
	fmt.Printf("\nCMP presence at %s:\n", at)
	for _, c := range cmps.All() {
		fmt.Printf("  %-10s %d domains\n", c, counts[c])
	}

	sort.Slice(rows, func(i, j int) bool { return rows[i].domain < rows[j].domain })
	if len(rows) > *top {
		rows = rows[:*top]
	}
	fmt.Printf("\nFirst %d CMP domains:\n", len(rows))
	for _, r := range rows {
		fmt.Printf("  %-28s %s\n", r.domain, r.cmp)
	}
}
