package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/resilience"
)

// RunConfig is everything a worker needs to participate in a fleet run
// beyond the coordinator's address, served on GET /config. Shipping the
// run parameters from the coordinator — instead of flag-matching across
// machines — is what makes "same run" a property the system enforces:
// vantage assignment, retry jitter, and the synthetic world all derive
// from these seeds, so a worker that fetched /config provably agrees
// with every other worker and with the single-process baseline.
type RunConfig struct {
	WorldSeed    uint64 `json:"world_seed"`
	WorldDomains int    `json:"world_domains"`
	CrawlSeed    uint64 `json:"crawl_seed"`
	// RetryAttempts and PolitenessMS parameterize the worker-side
	// StreamPlatform.
	RetryAttempts int   `json:"retry_attempts"`
	PolitenessMS  int64 `json:"politeness_ms"`
	// IngestURL is the capd the workers push captures to.
	IngestURL string `json:"ingest_url"`
	// ObsURL, when set, is the obsd aggregator workers push their span
	// exports to (POST {ObsURL}/ingest/spans) after draining — workers
	// are ephemeral, so scrape-based collection would miss them.
	ObsURL string `json:"obs_url,omitempty"`
}

// ServerConfig parameterizes the coordinator's HTTP surface.
type ServerConfig struct {
	// MaxInFlight bounds concurrently served protocol requests; excess
	// is shed with 429 + Retry-After (default 128).
	MaxInFlight int
}

// maxBodyBytes caps one protocol request body; a lease request's
// results are small.
const maxBodyBytes = 1 << 20

// NewHandler mounts the fleet wire protocol over a coordinator:
//
//	POST /lease      lease-request frame → lease-grant | idle | drained | error
//	POST /heartbeat  heartbeat frame     → ack | error
//	GET  /status     coordinator Status as JSON
//	GET  /config     RunConfig as JSON
//	GET  /healthz    liveness (outside the limiter)
//
// A lease request that reports a lease's results has them accounted
// (Coordinator.Complete) before it is answered; a refused report is
// answered with the error frame instead of work. Protocol responses
// are HTTP 200 with the semantics in the frame Type, so transport
// failures and protocol outcomes stay distinguishable.
func NewHandler(co *Coordinator, rc RunConfig, cfg ServerConfig) http.Handler {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 128
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/lease", func(w http.ResponseWriter, r *http.Request) {
		frameExchange(w, r, FrameLeaseRequest, func(f *Frame) *Frame {
			if f.Lease > 0 {
				if ack := co.Complete(f.Worker, f.Lease, f.Results); ack.Type == FrameError {
					return ack
				}
			}
			return co.Grant(f.Worker)
		})
	})
	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		frameExchange(w, r, FrameHeartbeat, func(f *Frame) *Frame {
			return co.Heartbeat(f.Worker, f.Lease)
		})
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(co.Status()) //nolint:errcheck
	})
	mux.HandleFunc("/config", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rc) //nolint:errcheck
	})

	limited := resilience.NewHTTPLimiter(resilience.HTTPLimiterConfig{
		MaxInFlight: cfg.MaxInFlight,
	}).Wrap(mux)
	outer := http.NewServeMux()
	// Liveness answers even while the protocol path sheds.
	outer.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		st := co.Status()
		json.NewEncoder(w).Encode(map[string]any{"ok": true, "drained": st.Drained}) //nolint:errcheck
	})
	outer.Handle("/", limited)
	return outer
}

// frameExchange decodes one frame of the expected type, applies fn, and
// writes the response frame.
func frameExchange(w http.ResponseWriter, r *http.Request, want FrameType, fn func(*Frame) *Frame) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "fleet: frame endpoints are POST-only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf("fleet: reading frame: %v", err), http.StatusBadRequest)
		return
	}
	f, err := DecodeFrame(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if f.Type != want {
		http.Error(w, fmt.Sprintf("fleet: endpoint wants %s frame, got %s", want, f.Type), http.StatusBadRequest)
		return
	}
	writeFrame(w, fn(f))
}

func writeFrame(w http.ResponseWriter, f *Frame) {
	data, err := EncodeFrame(f)
	if err != nil {
		http.Error(w, fmt.Sprintf("fleet: encoding response: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck
}
