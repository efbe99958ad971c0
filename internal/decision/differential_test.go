package decision

import (
	"sync"
	"testing"

	"repro/internal/gvl"
	"repro/internal/rng"
	"repro/internal/tcf"
)

// The differential contract: for every consent string — fuzz-generated
// or population-generated — the compiled kernel must answer every
// (vendor, purpose) question identically to the naive reference path,
// with and without GVL tables. This is the acceptance gate for the
// whole package: the bit-packed fast path earns its keep only if it is
// indistinguishable from re-decoding.

var (
	testResolverOnce sync.Once
	testResolver     *Resolver
)

// sharedResolver builds one moderate GVL history for all differential
// tests (40 versions keeps construction fast while still exercising
// version resolution, vendor churn and flexible purposes).
func sharedResolver(t testing.TB) *Resolver {
	t.Helper()
	testResolverOnce.Do(func() {
		h := gvl.GenerateHistory(gvl.HistoryConfig{
			Seed: 7, Versions: 40, InitialVendors: 80, PeakVendors: 300,
		})
		testResolver = NewResolver(gvl.UpgradeHistory(h, gvl.DefaultV2UpgradeConfig()))
	})
	return testResolver
}

// checkTriple asserts kernel/naive agreement for one question. naive
// is raw as the reference path decodes it (naiveParse), so a string
// probed many times is decoded once on each side.
func checkTriple(t *testing.T, cp *Compiled, naive *tcf.V2ConsentString, r *Resolver, raw string, vendor, purpose int) {
	t.Helper()
	var table *VendorTable
	var list *gvl.ListV2
	if r != nil {
		table = r.Table(cp.VendorListVersion)
		list = r.List(cp.VendorListVersion)
	}
	got := Decide(cp, table, vendor, purpose)
	if want := naiveDecideV2(naive, list, vendor, purpose); got != want {
		t.Fatalf("divergence on vendor=%d purpose=%d: kernel=%v naive=%v\nraw=%q",
			vendor, purpose, got, want, raw)
	}
}

// TestDifferentialPopulation is the ≥100k-string identity check from
// the acceptance criteria (5k under -short). Every string is compiled
// once and decoded once by the reference path, then probed on
// deterministic and drawn triples, without tables and with the shared
// resolver.
func TestDifferentialPopulation(t *testing.T) {
	size := differentialPopulationSize
	if testing.Short() {
		size = 5_000
	}
	pop, err := GeneratePopulation(PopulationConfig{Seed: 42, Size: size, MaxVLV: 40})
	if err != nil {
		t.Fatal(err)
	}
	r := sharedResolver(t)
	probe := rng.New(99).Derive("probe")

	fixed := [][2]int{{1, 1}, {3, 2}, {50, 7}, {649, 10}, {651, 1}, {1, 24}}
	for i, raw := range pop.Strings {
		cp, err := Compile(raw)
		if err != nil {
			t.Fatalf("population string %d does not compile: %v\nraw=%q", i, err, raw)
		}
		naive, err := naiveParse(raw)
		if err != nil {
			t.Fatalf("naive rejected a string the kernel compiled: %v\nraw=%q", err, raw)
		}
		pr := probe.Stream("s", rng.Key(i))
		for _, fx := range fixed {
			checkTriple(t, cp, naive, nil, raw, fx[0], fx[1])
			checkTriple(t, cp, naive, r, raw, fx[0], fx[1])
		}
		for k := 0; k < 4; k++ {
			v, p := 1+pr.Intn(700), 1+pr.Intn(12)
			checkTriple(t, cp, naive, nil, raw, v, p)
			checkTriple(t, cp, naive, r, raw, v, p)
		}
	}
}

// TestDifferentialCacheAgrees re-asks through the cache: the compiled
// form a cache hit returns must answer exactly like a fresh compile.
func TestDifferentialCacheAgrees(t *testing.T) {
	pop, err := GeneratePopulation(PopulationConfig{Seed: 5, Size: 500})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(CacheConfig{Capacity: 128})
	for round := 0; round < 2; round++ { // second round hits
		for i, raw := range pop.Strings {
			fromCache, err := cache.Get(raw)
			if err != nil {
				t.Fatalf("string %d: %v", i, err)
			}
			fresh, err := Compile(raw)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range [][2]int{{1, 1}, {20, 3}, {300, 8}} {
				if a, b := Decide(fromCache, nil, q[0], q[1]), Decide(fresh, nil, q[0], q[1]); a != b {
					t.Fatalf("cache answer %v != fresh answer %v for %v", a, b, q)
				}
			}
		}
	}
}

// FuzzDecideDifferential fuzzes raw strings through both paths. The
// kernel and the reference must agree on compilability, and — when a
// string decodes — on every probed decision, with and without tables.
func FuzzDecideDifferential(f *testing.F) {
	pop, err := GeneratePopulation(PopulationConfig{Seed: 11, Size: 64, MaxVLV: 40})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range pop.Strings {
		f.Add(s)
	}
	f.Add("")
	f.Add("BObdrPUOevsguAfDqFENCNAAAAAmeAAA")
	f.Add("COtybn4PA_zT4KjACBENAPCIAEBAAECAAIAAAAAAAAAA")
	f.Add("!!!!")
	f.Add("CP")

	h := gvl.GenerateHistory(gvl.HistoryConfig{
		Seed: 7, Versions: 10, InitialVendors: 40, PeakVendors: 120,
	})
	resolver := NewResolver(gvl.UpgradeHistory(h, gvl.DefaultV2UpgradeConfig()))

	f.Fuzz(func(t *testing.T, raw string) {
		cp, cerr := Compile(raw)
		_, nerr := NaiveDecide(raw, nil, 1, 1)
		if (cerr == nil) != (nerr == nil) {
			t.Fatalf("compilability disagreement: compile err=%v naive err=%v raw=%q", cerr, nerr, raw)
		}
		if cerr != nil {
			return
		}
		table := resolver.Table(cp.VendorListVersion)
		list := resolver.List(cp.VendorListVersion)
		for _, q := range [][2]int{{1, 1}, {2, 3}, {37, 5}, {100, 10}, {5000, 2}, {1, 24}, {0, 1}, {1, 0}} {
			got := Decide(cp, nil, q[0], q[1])
			want, err := NaiveDecide(raw, nil, q[0], q[1])
			if err != nil {
				t.Fatalf("naive failed after compile succeeded: %v", err)
			}
			if got != want {
				t.Fatalf("divergence (no table) v=%d p=%d: kernel=%v naive=%v raw=%q",
					q[0], q[1], got, want, raw)
			}
			got = Decide(cp, table, q[0], q[1])
			want, err = NaiveDecide(raw, list, q[0], q[1])
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("divergence (table v%d) v=%d p=%d: kernel=%v naive=%v raw=%q",
					cp.VendorListVersion, q[0], q[1], got, want, raw)
			}
		}
	})
}
