package analysis

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/detect"
	"repro/internal/interp"
	"repro/internal/simtime"
)

// foldCap fabricates one capture: domain, day, detected CMP (None for
// a CMP-less page), and the vantage/config column.
func foldCap(domain string, day int, id cmps.ID, v capture.Vantage, config string) *capture.Capture {
	c := &capture.Capture{
		SeedURL:     "https://" + domain + fmt.Sprintf("/p/%d", day),
		FinalURL:    "https://" + domain + "/",
		FinalDomain: domain,
		Day:         simtime.Day(day),
		Vantage:     v,
		Config:      config,
		Status:      200,
	}
	if id != cmps.None {
		c.Requests = []capture.Request{{Host: id.Hostname(), Path: "/t.js", Status: 200}}
	}
	return c
}

// syntheticStream builds a deterministic mixed stream: several
// domains, multiple captures per day, CMP switches, failures, and
// multiple vantage/config columns.
func syntheticStream(n int) []*capture.Capture {
	rng := rand.New(rand.NewSource(42))
	vantages := []capture.Vantage{capture.USCloud, capture.EUCloud, capture.EUUniversity}
	configs := []string{"default", "extended-timeout"}
	var out []*capture.Capture
	for i := 0; i < n; i++ {
		domain := fmt.Sprintf("site%d.example", rng.Intn(8))
		day := rng.Intn(simtime.NumDays)
		var id cmps.ID
		switch rng.Intn(4) {
		case 0:
			id = cmps.None
		default:
			// Domains drift between two CMPs over the window,
			// exercising switch transitions.
			if day < simtime.NumDays/2 {
				id = cmps.ID(1 + rng.Intn(3))
			} else {
				id = cmps.ID(1 + rng.Intn(int(cmps.Count)))
			}
		}
		c := foldCap(domain, day, id, vantages[rng.Intn(len(vantages))], configs[rng.Intn(len(configs))])
		if rng.Intn(20) == 0 {
			c.Failed = true
		}
		out = append(out, c)
	}
	return out
}

// hostCap fabricates a capture of domain on day whose page requested
// the given hosts.
func hostCap(domain string, day simtime.Day, hosts ...string) *capture.Capture {
	c := &capture.Capture{FinalDomain: domain, Day: day, Status: 200}
	for _, h := range hosts {
		c.Requests = append(c.Requests, capture.Request{Host: h, Status: 200})
	}
	return c
}

// referencePresence is the batch definition of presence the fold must
// reproduce: group captures by final domain, detect, sort each domain's
// records by day, classify, interpolate. It also counts the recorded
// and the multi-CMP captures.
func referencePresence(det *detect.Detector, caps []*capture.Capture) (ivs map[string][]interp.Interval, total, multi int64) {
	byDomain := make(map[string][]detect.Rec)
	for _, c := range caps {
		if c.Failed || c.FinalDomain == "" {
			continue
		}
		id, mask := det.DetectMask(c)
		total++
		if bits.OnesCount32(mask) > 1 {
			multi++
		}
		byDomain[c.FinalDomain] = append(byDomain[c.FinalDomain], detect.Rec{Day: int32(c.Day), CMP: int8(id)})
	}
	ivs = make(map[string][]interp.Interval)
	for domain, recs := range byDomain {
		sort.Slice(recs, func(i, j int) bool { return recs[i].Day < recs[j].Day })
		if built := interp.Build(detect.ClassifyRecs(recs, detect.SiteHeuristicThreshold), interp.Options{}); len(built) > 0 {
			ivs[domain] = built
		}
	}
	return ivs, total, multi
}

// TestPresenceFoldMatchesBatch proves the fold against the batch
// definition of presence: folding a stream record-by-record, with a
// snapshot mid-stream, yields exactly the reference intervals and
// counters, and Rebuild reproduces them without disturbing the cache.
func TestPresenceFoldMatchesBatch(t *testing.T) {
	caps := syntheticStream(600)
	det := detect.Default()
	want, total, multi := referencePresence(det, caps)

	fold := NewPresenceFold(det)
	for i, c := range caps {
		fold.Fold(c)
		if i == len(caps)/2 {
			// A mid-stream snapshot must not disturb later folding
			// (the dirty-domain cache refreshes incrementally).
			fold.Presence()
		}
	}
	inc := fold.Presence()
	fold.Rebuild(interp.Options{NoInterpolation: true, FadeOut: -1})
	rebuilt := fold.Rebuild(interp.Options{})

	for name, db := range map[string]*PresenceDB{"fold": inc, "rebuild": rebuilt} {
		if db.Len() != len(want) {
			t.Fatalf("%s: %d domains, want %d", name, db.Len(), len(want))
		}
		for d, ivs := range want {
			if !reflect.DeepEqual(db.Intervals(d), ivs) {
				t.Errorf("%s %s: intervals differ\n got %+v\nwant %+v", name, d, db.Intervals(d), ivs)
			}
		}
	}
	if fold.Total != total || fold.MultiCMP != multi {
		t.Errorf("counters: fold %d/%d, reference %d/%d", fold.Total, fold.MultiCMP, total, multi)
	}
}

// TestPresenceFoldOrderIndependence proves the fold contract: any
// interleaving that preserves per-domain order folds to the same
// presence DB.
func TestPresenceFoldOrderIndependence(t *testing.T) {
	caps := syntheticStream(400)
	det := detect.Default()

	foldA := NewPresenceFold(det)
	for _, c := range caps {
		foldA.Fold(c)
	}

	// Partition by domain (preserving relative order), then replay
	// domain-by-domain — the batch shard sweep's extreme case.
	byDomain := make(map[string][]*capture.Capture)
	var order []string
	for _, c := range caps {
		if c.FinalDomain != "" {
			if _, ok := byDomain[c.FinalDomain]; !ok {
				order = append(order, c.FinalDomain)
			}
			byDomain[c.FinalDomain] = append(byDomain[c.FinalDomain], c)
		}
	}
	foldB := NewPresenceFold(det)
	for _, d := range order {
		for _, c := range byDomain[d] {
			foldB.Fold(c)
		}
	}

	a, b := foldA.Presence(), foldB.Presence()
	if a.Len() != b.Len() {
		t.Fatalf("len: %d vs %d", a.Len(), b.Len())
	}
	for _, d := range a.Domains() {
		if !reflect.DeepEqual(a.Intervals(d), b.Intervals(d)) {
			t.Errorf("%s: interleaving changed intervals", d)
		}
	}
}

// TestPresenceFoldCheckpointRoundTrip proves checkpoint restore is
// lossless mid-stream: state → marshal → restore → continue folding
// matches an uninterrupted fold.
func TestPresenceFoldCheckpointRoundTrip(t *testing.T) {
	caps := syntheticStream(300)
	det := detect.Default()

	straight := NewPresenceFold(det)
	for _, c := range caps {
		straight.Fold(c)
	}

	first := NewPresenceFold(det)
	for _, c := range caps[:150] {
		first.Fold(c)
	}
	first.Presence() // a refreshed cache must not leak into the checkpoint
	state, err := first.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewPresenceFold(det)
	if err := resumed.UnmarshalState(state); err != nil {
		t.Fatal(err)
	}
	for _, c := range caps[150:] {
		resumed.Fold(c)
	}

	want, got := straight.Presence(), resumed.Presence()
	if want.Len() != got.Len() {
		t.Fatalf("len: got %d want %d", got.Len(), want.Len())
	}
	for _, d := range want.Domains() {
		if !reflect.DeepEqual(want.Intervals(d), got.Intervals(d)) {
			t.Errorf("%s: restored fold diverged", d)
		}
	}
	if resumed.Total != straight.Total || resumed.MultiCMP != straight.MultiCMP {
		t.Errorf("counters diverged: %d/%d vs %d/%d",
			resumed.Total, resumed.MultiCMP, straight.Total, straight.MultiCMP)
	}
}

// Folding stays allocation-free beyond the amortized growth of the
// per-domain record slice.
func TestPresenceFoldRecordAllocs(t *testing.T) {
	f := NewPresenceFold(detect.Default())
	c := hostCap("a.com", 12, "x.com", cmps.TrustArc.Hostname())
	f.Record(c) // warm the domain slice
	if n := testing.AllocsPerRun(100, func() { f.Record(c) }); n > 1 {
		t.Errorf("Record allocs %v, want <=1 (amortized slice growth)", n)
	}
}

// TestCoverageFold checks the monthly and cumulative tables against
// hand-computed expectations, including first-detection-wins dedup.
func TestCoverageFold(t *testing.T) {
	det := detect.Default()
	f := NewCoverageFold()
	jan, feb := simtime.Date(2019, 1, 10), simtime.Date(2019, 2, 5)
	us, eu := capture.USCloud, capture.EUCloud

	failed := foldCap("d.com", int(jan), cmps.OneTrust, us, "default")
	failed.Failed = true
	f.FoldRows(RowsOf(det, []*capture.Capture{
		foldCap("a.com", int(jan), cmps.OneTrust, us, "default"),
		// Same month+config+domain: a later detection must not overwrite.
		foldCap("a.com", int(jan)+1, cmps.Quantcast, us, "default"),
		foldCap("b.com", int(jan), cmps.Quantcast, us, "default"),
		// Different config column counts separately.
		foldCap("a.com", int(jan), cmps.OneTrust, eu, "default"),
		// CMP-less and failed captures never occupy a slot.
		foldCap("c.com", int(jan), cmps.None, us, "default"),
		failed,
		// February: a.com switches to Quantcast — new month, fresh slot.
		foldCap("a.com", int(feb), cmps.Quantcast, us, "default"),
	}))

	months := f.Months()
	if len(months) != 2 || months[0] != jan.Month() || months[1] != feb.Month() {
		t.Fatalf("months = %v", months)
	}
	janTable := f.MonthTable(jan.Month())
	if got := janTable.Counts[cmps.OneTrust]["us-cloud/default"]; got != 1 {
		t.Errorf("jan OneTrust us-cloud = %d, want 1", got)
	}
	if got := janTable.Counts[cmps.Quantcast]["us-cloud/default"]; got != 1 {
		t.Errorf("jan Quantcast us-cloud = %d, want 1 (first detection wins)", got)
	}
	if got := janTable.Totals["us-cloud/default"]; got != 2 {
		t.Errorf("jan us-cloud total = %d, want 2", got)
	}
	if got := janTable.Totals["eu-cloud/default"]; got != 1 {
		t.Errorf("jan eu-cloud total = %d, want 1", got)
	}
	// Cumulative: a.com counts once under its January (earliest) CMP.
	cum := f.Cumulative()
	if got := cum.Counts[cmps.OneTrust]["us-cloud/default"]; got != 1 {
		t.Errorf("cumulative OneTrust = %d, want 1", got)
	}
	if got := cum.Totals["us-cloud/default"]; got != 2 {
		t.Errorf("cumulative us-cloud total = %d, want 2", got)
	}

	// Checkpoint round-trip preserves both tables exactly.
	state, err := f.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	g := NewCoverageFold()
	if err := g.UnmarshalState(state); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Cumulative(), g.Cumulative()) {
		t.Error("cumulative table diverged after checkpoint restore")
	}
	for _, m := range months {
		if !reflect.DeepEqual(f.MonthTable(m), g.MonthTable(m)) {
			t.Errorf("month %d table diverged after checkpoint restore", m)
		}
	}
}

// Checkpoints that decode as JSON but name records a snapshot cannot
// index are rejected, not restored.
func TestFoldStateRejectsOutOfRange(t *testing.T) {
	last := strconv.Itoa(simtime.NumDays)
	for _, st := range []string{
		`{"total":1,"multi_cmp":0,"domains":{"a.com":[100,9]}}`,
		`{"total":1,"multi_cmp":0,"domains":{"a.com":[100,-1]}}`,
		`{"total":1,"multi_cmp":0,"domains":{"a.com":[-1,1]}}`,
		`{"total":1,"multi_cmp":0,"domains":{"a.com":[` + last + `,1]}}`,
	} {
		if err := NewPresenceFold(detect.Default()).UnmarshalState([]byte(st)); err == nil {
			t.Errorf("presence state accepted: %s", st)
		}
	}
	feb := strconv.Itoa(int(simtime.Date(2019, 2, 1)))
	for _, st := range []string{
		`{"months":{"12x":{"us-cloud/default":{"a.com":1}}}}`,
		`{"months":{"12":{"us-cloud/default":{"a.com":1}}}}`,
		`{"months":{"+0":{"us-cloud/default":{"a.com":1}}}}`,
		`{"months":{"-31":{"us-cloud/default":{"a.com":1}}}}`,
		`{"months":{"` + feb + `":{"us-cloud/default":{"a.com":0}}}}`,
		`{"months":{"` + feb + `":{"us-cloud/default":{"a.com":9}}}}`,
	} {
		if err := NewCoverageFold().UnmarshalState([]byte(st)); err == nil {
			t.Errorf("coverage state accepted: %s", st)
		}
	}
}

// FuzzFoldState feeds arbitrary bytes to both folds' UnmarshalState.
// Whatever a fold accepts must snapshot without panicking and must
// round-trip: Marshal → Unmarshal → Marshal yields the same bytes.
func FuzzFoldState(f *testing.F) {
	det := detect.Default()
	f.Add([]byte(`{"total":1,"multi_cmp":0,"domains":{"a.com":[100,9]}}`))
	f.Add([]byte(`{"months":{"12x":{"us-cloud/default":{"a.com":9}}}}`))
	presence, coverage := NewPresenceFold(det), NewCoverageFold()
	// A short stream keeps the valid seeds small: the fuzzer minimizes
	// every new input, and minimizing a large one stalls the run.
	for _, c := range syntheticStream(24) {
		presence.Fold(c)
	}
	coverage.FoldRows(RowsOf(det, syntheticStream(24)))
	for _, fold := range []interface{ MarshalState() ([]byte, error) }{presence, coverage} {
		b, err := fold.MarshalState()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p := NewPresenceFold(det)
		if p.UnmarshalState(b) == nil {
			p.Presence()
			first, err := p.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			q := NewPresenceFold(det)
			if err := q.UnmarshalState(first); err != nil {
				t.Fatalf("presence re-restore: %v", err)
			}
			if again, _ := q.MarshalState(); !bytes.Equal(first, again) {
				t.Fatalf("presence round trip:\n%s\n%s", first, again)
			}
		}
		c := NewCoverageFold()
		if c.UnmarshalState(b) == nil {
			c.Cumulative()
			for _, m := range c.Months() {
				c.MonthTable(m)
			}
			first, err := c.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			d := NewCoverageFold()
			if err := d.UnmarshalState(first); err != nil {
				t.Fatalf("coverage re-restore: %v", err)
			}
			if again, _ := d.MarshalState(); !bytes.Equal(first, again) {
				t.Fatalf("coverage round trip:\n%s\n%s", first, again)
			}
		}
	})
}
