package decision

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// The load driver behind cmd/decisionload and the decision smoke gate.
// It generates a deterministic stream of synthetic bid requests over a
// consent-string population — Zipf-skewed string popularity, uniform
// vendor/purpose draws, auction-shaped runs of decisions per string —
// pre-renders them into NDJSON batch bodies, and drives a consentd over
// real HTTP from concurrent workers. Bodies are rendered before the
// clock starts (the wrk approach), so the measured path is transport +
// server, not client formatting. A validation pass replays sampled
// batches and checks every answer against the naive reference decoder.

// LoadConfig parameterizes a load run.
type LoadConfig struct {
	// ServerURL is the consentd base URL (e.g. "http://127.0.0.1:8344").
	ServerURL string
	// Population supplies the consent strings (required).
	Population *Population
	// Seed roots the traffic draws (default: population seed).
	Seed uint64
	// Workers is the number of concurrent client connections
	// (default 4).
	Workers int
	// Decisions is the total decision target (default 1_000_000).
	Decisions int
	// BatchSize is decisions per HTTP request (default 512).
	BatchSize int
	// Bodies is the size of the pre-rendered body pool the workers
	// cycle through (default 64).
	Bodies int
	// ZipfExponent skews string popularity (default 1.1; ≤0 keeps the
	// default, set Uniform to disable skew).
	ZipfExponent float64
	// Uniform disables the Zipf skew (every string equally likely) —
	// the cache-hostile worst case.
	Uniform bool
}

// The query draws: vendors up to the population's maxVendorID,
// purposes up to maxPurpose, and at most runLength decisions asked
// about one string before switching (real bid requests fan one user's
// string out across many vendors).
const (
	maxPurpose = 10
	runLength  = 16
)

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Seed == 0 && c.Population != nil {
		c.Seed = c.Population.Config.Seed
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Decisions <= 0 {
		c.Decisions = 1_000_000
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 512
	}
	if c.Bodies <= 0 {
		c.Bodies = 64
	}
	if c.ZipfExponent <= 0 {
		c.ZipfExponent = 1.1
	}
	return c
}

// loadBody is one pre-rendered batch request plus the triples it asks
// about, kept for validation.
type loadBody struct {
	body    []byte
	queries []loadQuery
}

type loadQuery struct {
	stringIdx int // population index
	vendor    int
	purpose   int
}

// buildBodies pre-renders the body pool.
func buildBodies(cfg LoadConfig) []loadBody {
	src := rng.New(cfg.Seed).Derive("decision-load")
	var zipf *rng.Zipf
	if !cfg.Uniform {
		zipf = rng.NewZipf(len(cfg.Population.Strings), cfg.ZipfExponent)
	}
	bodies := make([]loadBody, cfg.Bodies)
	for b := range bodies {
		r := src.Stream("body", rng.Key(b))
		var buf bytes.Buffer
		queries := make([]loadQuery, 0, cfg.BatchSize)
		for len(queries) < cfg.BatchSize {
			var idx int
			if zipf != nil {
				idx = zipf.Rank(r) - 1
			} else {
				idx = r.Intn(len(cfg.Population.Strings))
			}
			run := 1 + r.Intn(runLength)
			for j := 0; j < run && len(queries) < cfg.BatchSize; j++ {
				q := loadQuery{
					stringIdx: idx,
					vendor:    1 + r.Intn(maxVendorID),
					purpose:   1 + r.Intn(maxPurpose),
				}
				if j == 0 {
					buf.WriteString(`{"t":"`)
					buf.WriteString(cfg.Population.Strings[idx])
					buf.WriteString(`","v":`)
				} else {
					buf.WriteString(`{"v":`)
				}
				buf.WriteString(strconv.Itoa(q.vendor))
				buf.WriteString(`,"p":`)
				buf.WriteString(strconv.Itoa(q.purpose))
				buf.WriteString("}\n")
				queries = append(queries, q)
			}
		}
		bodies[b] = loadBody{body: buf.Bytes(), queries: queries}
	}
	return bodies
}

// PrerenderBodies renders the NDJSON batch bodies a load run with this
// configuration would send — exported for benchmarks and tools that
// drive the batch endpoint directly.
func PrerenderBodies(cfg LoadConfig) [][]byte {
	cfg = cfg.withDefaults()
	bodies := buildBodies(cfg)
	out := make([][]byte, len(bodies))
	for i := range bodies {
		out[i] = bodies[i].body
	}
	return out
}

// LoadResult summarizes a load run.
type LoadResult struct {
	Decisions       int64         `json:"decisions"`
	Requests        int64         `json:"requests"`
	Elapsed         time.Duration `json:"elapsed_ns"`
	DecisionsPerSec float64       `json:"decisions_per_sec"`
	// P50 / P99 are per-batch-request latencies.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	// Bases counts answers by basis letter (N/C/L).
	Bases map[string]int64 `json:"bases"`
}

// RunLoad drives the server and measures throughput.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Population == nil || len(cfg.Population.Strings) == 0 {
		return nil, fmt.Errorf("decision: load needs a population")
	}
	if cfg.ServerURL == "" {
		return nil, fmt.Errorf("decision: load needs a server URL")
	}
	bodies := buildBodies(cfg)
	url := cfg.ServerURL + "/v1/batch"

	var (
		decisions atomic.Int64
		requests  atomic.Int64
		nextBody  atomic.Int64
		basisCnt  [3]atomic.Int64
		// firstErr is a pointer, not an atomic.Value: the errors
		// stored differ in concrete type, which a Value refuses.
		firstErr atomic.Pointer[error]
		wg       sync.WaitGroup
	)
	fail := func(err error) { firstErr.CompareAndSwap(nil, &err) }
	latencies := make([][]time.Duration, cfg.Workers)

	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{
				MaxIdleConnsPerHost: 2,
				IdleConnTimeout:     30 * time.Second,
			}}
			respBuf := make([]byte, 64<<10)
			for decisions.Load() < int64(cfg.Decisions) {
				lb := &bodies[int(nextBody.Add(1)-1)%len(bodies)]
				t0 := time.Now()
				resp, err := client.Post(url, "application/x-ndjson", bytes.NewReader(lb.body))
				if err != nil {
					fail(err)
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					// Shed by the limiter; back off briefly and retry.
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					time.Sleep(2 * time.Millisecond)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					fail(fmt.Errorf("decision: batch returned %s", resp.Status))
					return
				}
				// Every answer line is exactly BatchAnswerLen bytes;
				// carry keeps a partial line across reads since TCP
				// chunking ignores line boundaries.
				var (
					n     int64
					carry int
					rerr  error
				)
				for rerr == nil {
					var k int
					k, rerr = resp.Body.Read(respBuf[carry:])
					k += carry
					i := 0
					for ; i+BatchAnswerLen <= k; i += BatchAnswerLen {
						switch respBuf[i+batchAnswerOffset] {
						case 'C':
							basisCnt[BasisConsent].Add(1)
						case 'L':
							basisCnt[BasisLegInt].Add(1)
						default:
							basisCnt[BasisNone].Add(1)
						}
						n++
					}
					carry = copy(respBuf, respBuf[i:k])
				}
				resp.Body.Close()
				// A batch counts only when every line was answered.
				switch {
				case rerr != io.EOF:
					err = fmt.Errorf("decision: reading batch answers: %w", rerr)
				case carry > 0:
					err = fmt.Errorf("decision: batch answers end in a partial line of %d bytes", carry)
				case n != int64(len(lb.queries)):
					err = fmt.Errorf("decision: batch of %d lines got %d answers", len(lb.queries), n)
				}
				if err != nil {
					fail(err)
					return
				}
				latencies[w] = append(latencies[w], time.Since(t0))
				decisions.Add(n)
				requests.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := firstErr.Load(); err != nil {
		return nil, *err
	}

	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := &LoadResult{
		Decisions:       decisions.Load(),
		Requests:        requests.Load(),
		Elapsed:         elapsed,
		DecisionsPerSec: float64(decisions.Load()) / elapsed.Seconds(),
		Bases: map[string]int64{
			"none":                basisCnt[BasisNone].Load(),
			"consent":             basisCnt[BasisConsent].Load(),
			"legitimate-interest": basisCnt[BasisLegInt].Load(),
		},
	}
	if len(all) > 0 {
		res.P50 = all[len(all)*50/100]
		i99 := len(all) * 99 / 100
		if i99 >= len(all) {
			i99 = len(all) - 1
		}
		res.P99 = all[i99]
	}
	return res, nil
}

// ValidateResult reports a validation replay.
type ValidateResult struct {
	Checked    int `json:"checked"`
	Mismatches int `json:"mismatches"`
	// FirstMismatch describes the first disagreement, if any.
	FirstMismatch string `json:"first_mismatch,omitempty"`
}

// ValidateAgainstNaive replays up to maxBodies pre-rendered batches
// against the server and checks every answer against the naive
// reference path (full re-decode + map lookups, resolver-supplied
// source lists). This is the smoke gate's correctness check: the
// compiled kernel, the cache, the batch parser and the wire format all
// have to agree with the reference for it to pass.
func ValidateAgainstNaive(cfg LoadConfig, resolver *Resolver, maxBodies int) (*ValidateResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Population == nil || len(cfg.Population.Strings) == 0 {
		return nil, fmt.Errorf("decision: validation needs a population")
	}
	bodies := buildBodies(cfg)
	if maxBodies <= 0 || maxBodies > len(bodies) {
		maxBodies = len(bodies)
	}
	client := &http.Client{}
	res := &ValidateResult{}
	for b := 0; b < maxBodies; b++ {
		lb := &bodies[b]
		resp, err := client.Post(cfg.ServerURL+"/v1/batch", "application/x-ndjson", bytes.NewReader(lb.body))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("decision: validation batch returned %s", resp.Status)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 4096), 4096)
		i := 0
		for sc.Scan() {
			line := sc.Bytes()
			if i >= len(lb.queries) {
				resp.Body.Close()
				return nil, fmt.Errorf("decision: server answered more lines than asked")
			}
			q := lb.queries[i]
			raw := cfg.Population.Strings[q.stringIdx]
			got, err := parseAnswerLine(line)
			if err != nil {
				resp.Body.Close()
				return nil, err
			}
			want, nerr := naiveForString(raw, resolver, q.vendor, q.purpose)
			if nerr != nil {
				resp.Body.Close()
				return nil, fmt.Errorf("decision: naive path rejected population string %d: %w", q.stringIdx, nerr)
			}
			res.Checked++
			if got != want {
				res.Mismatches++
				if res.FirstMismatch == "" {
					res.FirstMismatch = fmt.Sprintf(
						"string %d vendor %d purpose %d: server=%s naive=%s",
						q.stringIdx, q.vendor, q.purpose, got, want)
				}
			}
			i++
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
		if i != len(lb.queries) {
			return nil, fmt.Errorf("decision: server answered %d of %d lines", i, len(lb.queries))
		}
	}
	return res, nil
}

// naiveForString answers one triple via the reference path, resolving
// the source list from the string's stamped version.
func naiveForString(raw string, resolver *Resolver, vendor, purpose int) (Basis, error) {
	c, err := Compile(raw)
	if err != nil {
		return BasisNone, err
	}
	if resolver == nil {
		return NaiveDecide(raw, nil, vendor, purpose)
	}
	return NaiveDecide(raw, resolver.List(c.VendorListVersion), vendor, purpose)
}

func parseAnswerLine(line []byte) (Basis, error) {
	if len(line) != BatchAnswerLen-1 { // scanner strips the newline
		return BasisNone, fmt.Errorf("decision: malformed answer line %q", line)
	}
	switch line[batchAnswerOffset] {
	case 'N':
		return BasisNone, nil
	case 'C':
		return BasisConsent, nil
	case 'L':
		return BasisLegInt, nil
	}
	return BasisNone, fmt.Errorf("decision: unknown basis in answer line %q", line)
}
