// Command smoke runs the end-to-end scenarios of `make check` against
// real child processes: each one boots the daemons under test from a
// directory of prebuilt binaries, drives them over HTTP, injects its
// fault (a SIGKILL, an outage, an overflow), and asserts the tier's
// headline invariant. Any failed assertion exits non-zero after
// reaping every child, and so does SIGINT/SIGTERM.
//
// Usage:
//
//	smoke [-bin DIR] SCENARIO
//
// Scenarios, one per file:
//
//	obs          capd's telemetry surface (obs.go)
//	fleet        distributed crawl, worker SIGKILL, byte-identical store (fleet.go)
//	decision     consentd under mixed load, validated against the naive path (decision.go)
//	replication  3-node ring, storage-node SIGKILL, repair to convergence (replication.go)
//	pack         live compaction, SIGKILL mid-pass, byte-identical to uncompacted (pack.go)
//	cluster-obs  obsd over the ring: stitched trace, rollups, burn-rate alert (clusterobs.go)
//	analytics    analyzed SIGKILL + checkpoint resume, views equal batch mode (analytics.go)
//
// `make bin` builds the binaries into bin/; `make NAME-smoke` runs one
// scenario and `make check` runs them all.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

var scenarios = map[string]func(){
	"obs":         obsScenario,
	"fleet":       fleetScenario,
	"decision":    decisionScenario,
	"replication": replicationScenario,
	"pack":        packScenario,
	"cluster-obs": clusterObsScenario,
	"analytics":   analyticsScenario,
}

var (
	binDir = flag.String("bin", "bin", "directory holding the binaries under test (see `make bin`)")
	// scenario is the one being run; it prefixes every line logged.
	scenario string
)

// bin is the path of one binary under test.
func bin(name string) string { return filepath.Join(*binDir, name) }

func main() {
	flag.Parse()
	run, ok := scenarios[flag.Arg(0)]
	if !ok || flag.NArg() != 1 {
		names := make([]string, 0, len(scenarios))
		for name := range scenarios {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: smoke [-bin DIR] %s\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	scenario = flag.Arg(0)

	// Ctrl-C during `make check` must not orphan daemons on ephemeral
	// ports: reap them exactly as a failed assertion does.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "smoke %s: %v, reaping children\n", scenario, s)
		cleanup()
		os.Exit(1)
	}()

	run()
	cleanup()
}
