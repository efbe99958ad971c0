package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload at smoke size, untraced and traced, so
// that go test keeps all four correctness checks and the whole
// per-layer table honest. It asserts nothing about timing.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	var names []string
	for _, s := range workloads {
		names = append(names, s.name)
	}
	in, err := buildInputs(1, smoke, t.TempDir(), names)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	for _, spec := range workloads {
		plain, traced, err := measure(spec, in, 0.05, true, out)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Failed != 0 || plain.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", spec.name, plain.Failed, plain.Attempted)
		}
		for name, v := range uniform(spec, plain, 1) {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want above zero", spec.name, name, v.Value)
			}
		}
		declared := map[string]bool{}
		for _, d := range perLayer {
			declared[d.Name] = true
		}
		for name := range traced.Layers {
			if !declared[name] {
				t.Errorf("%s: reports per-layer metric %s that metrics.go does not declare", spec.name, name)
			}
		}
		if traced.Slowest == "" {
			t.Errorf("%s: traced run names no slowest layer", spec.name)
		}
		if _, err := os.Stat(out + "/" + spec.name + ".trace.ndjson"); err != nil {
			t.Errorf("%s: %v", spec.name, err)
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json at the repository root
// to the tables this program reports from.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), the program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d] = %+v, the program has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s[%d] %s: bound in the file does not match %v", kind, i, g.Name, w.Bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}
