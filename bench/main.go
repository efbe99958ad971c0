// Command bench is the whole-pipeline benchmark (ISSUE 12): the real
// topology — fleet coordinator and workers, capring over three
// compacting capds, analyzed, and consentd beside them — composed in
// one process from the constructors the cmd/ daemons use, each tier
// behind its own loopback listener, driven by four closed-loop
// workloads whose inputs come from -seed alone. README.md has the
// tables; BENCHMARK.json at the repository root is the contract.
//
//	go run -C bench . -seed 1                       every workload, untraced then traced
//	go run -C bench . -sets 2                       …twice, and hold the spread to the bounds
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1
//	                                                one run, one JSON object on the last line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupRepeats is how many times a run constructs its inputs; setup_s
// is the median, so one slow construction does not read as a
// regression.
const setupRepeats = 3

// environment is recorded in every result file.
type environment struct {
	Seed       uint64  `json:"seed"`
	Sizes      sizes   `json:"sizes"`
	Seconds    float64 `json:"seconds_per_run"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

func environmentOf(seed uint64, sz sizes, seconds float64) environment {
	env := environment{
		Seed: seed, Sizes: sz, Seconds: seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// setup constructs the inputs setupRepeats times and keeps the last,
// returning the median construction time.
func setup(seed uint64, sz sizes, out string, names []string) (*inputs, float64, error) {
	var in *inputs
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if in != nil {
			in.close()
		}
		dir, err := os.MkdirTemp(out, "work-")
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		if in, err = buildInputs(seed, sz, dir, names); err != nil {
			os.RemoveAll(dir)
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return in, median(times), nil
}

// contractResult is the one JSON object the acceptance driver reads
// from the last line of standard output.
type contractResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runOne is the acceptance contract's single run: one workload, one
// seed, end-to-end metrics untraced or per-layer metrics traced.
func runOne(spec workloadSpec, seed uint64, sz sizes, seconds float64, traced bool, out string) error {
	in, setupS, err := setup(seed, sz, out, []string{spec.name})
	if err != nil {
		return err
	}
	defer in.close()
	plain, res, err := measure(spec, in, seconds, traced, out)
	if err != nil {
		return err
	}
	printResult(plain)
	cr := contractResult{Attempted: plain.Attempted, Failed: plain.Failed, Metrics: uniform(spec, plain, setupS)}
	if traced {
		printResult(res)
		cr.Attempted, cr.Failed = cr.Attempted+res.Attempted, cr.Failed+res.Failed
		cr.Metrics = map[string]value{}
		for _, d := range perLayer {
			cr.Metrics[d.Name] = value{Value: res.Layers[d.Name].Value, Unit: d.Unit}
		}
	}
	cr.Correct = cr.Failed == 0
	line, err := json.Marshal(cr)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !cr.Correct {
		return fmt.Errorf("%d of %d operations failed", cr.Failed, cr.Attempted)
	}
	return nil
}

// uniform maps a workload's own end-to-end metrics onto the set every
// workload reports.
func uniform(spec workloadSpec, res *result, setupS float64) map[string]value {
	return map[string]value{
		"throughput_per_s": {Value: res.E2E[spec.throughput].Value, Unit: "1/s"},
		"latency_p50_ms":   {Value: res.E2E[spec.latency].Value, Unit: "ms"},
		"setup_s":          {Value: setupS + res.PrepareS, Unit: "s"},
	}
}

func printResult(r *result) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Printf("\n%s (%s): %d windows, median window %.3f s, prepare %.3f s, %d ops attempted, %d failed\n",
		r.Workload, kind, r.Windows, r.WallS, r.PrepareS, r.Attempted, r.Failed)
	fmt.Printf("  window lengths (s): %.3f\n", r.Walls)
	printValues("  ", r.E2E)
	if r.Traced {
		printValues("  ", r.Layers)
		fmt.Printf("  slowest layer: %s (%.0f %% of attributed self time)\n", r.Slowest, 100*r.SlowestShare)
	}
}

func printValues(indent string, vals map[string]value) {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := vals[n]
		samples := ""
		if v.N > 0 {
			samples = fmt.Sprintf("  (n=%d)", v.N)
		}
		if v.TailPct > 0 {
			samples += fmt.Sprintf("  (p%v)", v.TailPct)
		}
		fmt.Printf("%s%-40s %14.4f %s%s\n", indent, n, v.Value, v.Unit, samples)
	}
}

// suiteFile is <out>/result.json and, with -sets, <out>/repeat.json.
type suiteFile struct {
	Env    environment          `json:"environment"`
	Sets   []map[string]*result `json:"sets"`
	Traced map[string]*result   `json:"traced,omitempty"`
	// Spread is, per workload and uniform end-to-end metric, spread()
	// of its values across the sets.
	Spread map[string]map[string]float64 `json:"spread,omitempty"`
	SetupS []float64                     `json:"setup_s"`
}

// runSuite is the whole benchmark in one command: every workload
// untraced, sets times over, then every workload traced; with more
// than one set it is also the self-check that two runs of the same
// code agree within the bounds.
func runSuite(seed uint64, sz sizes, seconds float64, sets int, out string) error {
	var names []string
	for _, s := range workloads {
		names = append(names, s.name)
	}
	file := suiteFile{Env: environmentOf(seed, sz, seconds)}
	var in *inputs
	defer func() {
		if in != nil {
			in.close()
		}
	}()
	for set := 0; set < sets; set++ {
		if in != nil {
			in.close()
		}
		var setupS float64
		var err error
		if in, setupS, err = setup(seed, sz, out, names); err != nil {
			return err
		}
		file.SetupS = append(file.SetupS, setupS)
		fmt.Printf("\n== set %d of %d: setup_s %.3f\n", set+1, sets, setupS)
		results := map[string]*result{}
		for _, spec := range workloads {
			res, _, err := measure(spec, in, seconds, false, "")
			if err != nil {
				return err
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s: %d of %d operations failed", spec.name, res.Failed, res.Attempted)
			}
			printResult(res)
			results[spec.name] = res
		}
		file.Sets = append(file.Sets, results)
	}

	fmt.Printf("\n== traced\n")
	file.Traced = map[string]*result{}
	for _, spec := range workloads {
		_, res, err := measure(spec, in, seconds, true, out)
		if err != nil {
			return err
		}
		printResult(res)
		if u := res.Layers["bench.unattributed_share"].Value; u >= 0.10 {
			fmt.Printf("  WARNING: %.0f %% of the window is covered by no layer span\n", 100*u)
		}
		file.Traced[spec.name] = res
	}
	if err := writeJSON(filepath.Join(out, "result.json"), file); err != nil {
		return err
	}
	if sets < 2 {
		return nil
	}

	fmt.Printf("\n== repeatability across %d sets (range or, from four sets, interquartile distance, over the median; bound)\n", sets)
	file.Spread = map[string]map[string]float64{}
	var over []string
	for _, spec := range workloads {
		file.Spread[spec.name] = map[string]float64{}
		vals := map[string][]float64{}
		for i, set := range file.Sets {
			for name, v := range uniform(spec, set[spec.name], file.SetupS[i]) {
				vals[name] = append(vals[name], v.Value)
			}
		}
		for _, d := range endToEnd {
			sp := spread(vals[d.Name])
			file.Spread[spec.name][d.Name] = sp
			mark := ""
			if sp > d.Bound {
				mark = "  OVER"
				over = append(over, spec.name+"/"+d.Name)
			}
			fmt.Printf("  %-16s %-18s %.4f  (%.2f)%s\n", spec.name, d.Name, sp, d.Bound, mark)
		}
	}
	if err := writeJSON(filepath.Join(out, "repeat.json"), file); err != nil {
		return err
	}
	if len(over) > 0 {
		return fmt.Errorf("spread exceeds its bound on %v", over)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print the contract's JSON result (default: the whole suite)")
		seed    = flag.Uint64("seed", 1, "seeds the world, the feed, the crawl, the query mix and the consent population")
		seconds = flag.Float64("seconds", 15, "timed seconds per run; windows are whole, so a run overshoots by at most one")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		sets    = flag.Int("sets", 1, "suite only: run the untraced suite this many times and hold each metric's spread to its bound")
		out     = flag.String("out", "out", "directory for result files, traces and the stores the run creates")
		small   = flag.Bool("smoke", false, "smoke sizes: every correctness check in a few seconds, numbers meaningless")
	)
	flag.Parse()
	sz := full
	if *small {
		sz = smoke
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	var err error
	if *name == "" {
		err = runSuite(*seed, sz, *seconds, *sets, *out)
	} else if spec, ok := specOf(*name); ok {
		err = runOne(spec, *seed, sz, *seconds, *trace == 1, *out)
	} else {
		err = fmt.Errorf("unknown workload %q", *name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
