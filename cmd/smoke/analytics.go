package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/capstore"
)

var resumeRe = regexp.MustCompile(`resumed from checkpoint at cursor (\d+)`)

// analyticsScenario exercises the incremental-analytics path: a capd
// ingest node, an analyzed follower with a short checkpoint interval,
// a SIGKILL mid-stream, a restart that must resume from the checkpoint
// (not refold the whole store), and a final byte-for-byte comparison
// of every served view against `analyze -store` batch mode over the
// same store.
func analyticsScenario() {
	const shards, total, batch = 4, 480, 16
	dir := tempDir()
	storeDir := filepath.Join(dir, "store")
	caps := mkCaptures(total)

	// Boot the ingest node and the follower against it.
	capd := boot(bin("capd"), "-store", storeDir, "-init-shards", strconv.Itoa(shards),
		"-ingest", "-metrics", "-addr", "127.0.0.1:0")
	cl := ingestClient(capd.url())
	analyzedArgs := []string{"-server", capd.url(), "-checkpoint", filepath.Join(dir, "checkpoints"),
		"-checkpoint-every", "64", "-poll", "10ms", "-metrics", "-addr", "127.0.0.1:0"}
	analyzed := boot(bin("analyzed"), analyzedArgs...)

	health := func(p *proc) analytics.AnalyzedHealth {
		var h analytics.AnalyzedHealth
		check(json.Unmarshal([]byte(get(p.url()+"/healthz")), &h))
		return h
	}
	waitHealth := func(p *proc, what string, ok func(analytics.AnalyzedHealth) bool) {
		deadline := time.Now().Add(20 * time.Second)
		for !ok(health(p)) {
			if time.Now().After(deadline) {
				fatalf("timed out waiting for %s (health %+v)", what, health(p))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Phase 1: stream ~40% and wait for the follower to catch up and
	// cut at least one durable checkpoint.
	phase1 := total * 2 / 5
	push(cl, caps[:phase1], batch)
	waitHealth(analyzed, "the phase-1 cursor with a checkpoint", func(h analytics.AnalyzedHealth) bool {
		return h.Cursor == int64(phase1) && h.CheckpointCursor > 0
	})

	// Phase 2: SIGKILL analyzed mid-stream — no graceful checkpoint —
	// and keep ingesting while it is down.
	ckptBefore := health(analyzed).CheckpointCursor
	analyzed.kill()
	logf("SIGKILLed analyzed at cursor %d (checkpoint %d)", phase1, ckptBefore)
	phase2 := total * 7 / 10
	push(cl, caps[phase1:phase2], batch)

	// Phase 3: restart on the same checkpoint directory. The banner
	// must report a resume, and the process must fold only the suffix
	// past its checkpoint — never the whole store again.
	analyzed = boot(bin("analyzed"), analyzedArgs...)
	m := resumeRe.FindStringSubmatch(analyzed.output())
	if m == nil {
		fatalf("restarted analyzed did not resume from a checkpoint:\n%s", analyzed.output())
	}
	resumed, err := strconv.ParseInt(m[1], 10, 64)
	check(err)
	if resumed <= 0 || resumed > int64(phase1) {
		fatalf("resumed cursor %d out of range (0, %d]", resumed, phase1)
	}

	// Phase 4: stream the rest and wait for full catch-up.
	push(cl, caps[phase2:], batch)
	waitHealth(analyzed, "the final cursor with zero lag", func(h analytics.AnalyzedHealth) bool {
		return h.Cursor == int64(total) && h.Lag == 0
	})

	// The restarted process folded exactly the post-checkpoint suffix.
	anURL := analyzed.url()
	folded := metricValue(get(anURL+"/metrics"), "analytics_fold_records_total")
	if want := float64(total) - float64(resumed); folded != want {
		fatalf("restarted analyzed folded %.0f records, want %.0f (resumed at %d of %d — full replay?)",
			folded, want, resumed, total)
	}

	// capd's /healthz exposes the ingest commit cursor, and it agrees
	// with what analyzed applied.
	var capdHealth capstore.Health
	check(json.Unmarshal([]byte(get(capd.url()+"/healthz")), &capdHealth))
	if capdHealth.Ingest == nil || capdHealth.Ingest.Accepted != int64(total) {
		fatalf("capd /healthz ingest = %+v, want %d accepted", capdHealth.Ingest, total)
	}

	// Pull every view (twice, so the snapshot cache also serves) and
	// validate the telemetry surface.
	views := make(map[string][]byte)
	for _, name := range analytics.ViewNames() {
		get(anURL + "/view/" + name)
		views[name] = bytes.TrimSuffix([]byte(get(anURL+"/view/"+name)), []byte("\n"))
		if lines := strings.Count(get(anURL+"/series/"+name), "\n"); lines == 0 {
			fatalf("/series/%s served no points", name)
		}
	}
	requireMetrics("analyzed", get(anURL+"/metrics"), "analytics_fold_records_total", "analytics_cursor",
		"analytics_lag_records", "analytics_checkpoints_total", "analytics_queries_total",
		"analytics_view_update_seconds")

	// Shut both down gracefully; batch mode needs the store unlocked.
	for _, p := range []*proc{analyzed, capd} {
		if err := p.stop(); err != nil {
			fatalf("shutdown: %v", err)
		}
	}

	// Headline: `analyze -store` over the very store capd wrote must
	// reproduce every served view byte for byte.
	out := filepath.Join(dir, "views.json")
	cmd := exec.Command(bin("analyze"), "-store", storeDir, "-views-out", out)
	cmd.Stderr = os.Stderr
	check(cmd.Run())
	var envelope struct {
		Cursor int64                      `json:"cursor"`
		Views  map[string]json.RawMessage `json:"views"`
	}
	b, err := os.ReadFile(out)
	check(err)
	check(json.Unmarshal(b, &envelope))
	if envelope.Cursor != int64(total) {
		fatalf("batch cursor %d, want %d", envelope.Cursor, total)
	}
	for name, served := range views {
		if !bytes.Equal(served, envelope.Views[name]) {
			fatalf("view %s: analyzed served different bytes than batch analyze\nserved: %.200s\nbatch:  %.200s",
				name, served, envelope.Views[name])
		}
	}
	logf("ok — %d records, %d views byte-identical to batch after SIGKILL + checkpoint resume at cursor %d",
		total, len(views), resumed)
}
