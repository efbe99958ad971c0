package agg

import (
	"encoding/json"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// Handler mounts the aggregator's cluster surface:
//
//	GET  /cluster/metrics       rollups, Prometheus text exposition
//	GET  /cluster/metrics.json  rollups as {"families":[…]}
//	GET  /cluster/traces        assembled trace summaries (JSON list)
//	GET  /cluster/traces/{id}   one assembled trace (deterministic text)
//	GET  /cluster/alerts        SLO rule states (JSON list)
//	GET  /cluster/healthz       scrape + alert health
//	POST /ingest/spans          NDJSON span export from an ephemeral
//	                            process (fleetd, crawl workers)
func Handler(a *Aggregator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WriteExposition(w, a.Rollup()) //nolint:errcheck // client gone mid-scrape
	})
	mux.HandleFunc("/cluster/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct { //nolint:errcheck
			Families []obs.ExpositionFamily `json:"families"`
		}{a.Rollup()})
	})
	mux.HandleFunc("/cluster/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(a.Traces()) //nolint:errcheck
	})
	mux.HandleFunc("/cluster/traces/", func(w http.ResponseWriter, r *http.Request) {
		tid := strings.TrimPrefix(r.URL.Path, "/cluster/traces/")
		if tid == "" {
			http.Error(w, "agg: want /cluster/traces/{trace-id}", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		ok, err := a.WriteTrace(w, tid)
		if err != nil {
			return // mid-body write error: client gone
		}
		if !ok {
			http.Error(w, "agg: unknown trace "+tid, http.StatusNotFound)
		}
	})
	mux.HandleFunc("/cluster/alerts", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(a.Alerts()) //nolint:errcheck
	})
	mux.HandleFunc("/cluster/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(a.Health()) //nolint:errcheck
	})
	mux.HandleFunc("/ingest/spans", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "agg: /ingest/spans wants POST", http.StatusMethodNotAllowed)
			return
		}
		if err := a.IngestSpans(http.MaxBytesReader(w, r.Body, 64<<20)); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}
