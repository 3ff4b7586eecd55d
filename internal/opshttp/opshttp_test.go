package opshttp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/serve"
)

// testStack builds a real rulebase + serve.Engine and an ops server bound to
// an ephemeral port, wired exactly like a binary would wire it.
func testStack(t *testing.T) (*core.Rulebase, *serve.Engine, *obs.AuditLog, *Server, string) {
	t.Helper()
	reg := obs.NewRegistry()
	rb := core.NewRulebase()
	r, err := core.NewWhitelist("rings?", "rings")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Add(r, "ops"); err != nil {
		t.Fatal(err)
	}
	eng := serve.NewEngine(rb, serve.EngineOptions{Obs: reg})
	audit := obs.NewAuditLog(obs.AuditConfig{Capacity: 128, SampleEvery: 1})

	srv, err := New(Options{
		Registry: reg,
		Audit:    audit,
		Health: func() HealthStatus {
			snap := eng.Current()
			return HealthStatus{
				Degraded:        eng.Degraded(),
				Ready:           true,
				QueueDepth:      0,
				QueueCapacity:   64,
				SnapshotVersion: snap.Version(),
			}
		},
		Snapshot: func() SnapshotInfo {
			snap := eng.Current()
			ids := snap.ActiveIDs()
			return SnapshotInfo{Version: snap.Version(), ActiveRules: len(ids), RuleIDs: ids}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})
	return rb, eng, audit, srv, "http://" + addr
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	_, _, _, _, base := testStack(t)
	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE " + serve.MetricSnapshotSwaps + " counter",
		serve.MetricSnapshotVersion,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestHealthzDegradesAndRecovers drives the engine through a failed rebuild
// (injected via faultinject) and back: /healthz must flip 200 → 503 → 200
// with the engine's degraded state.
func TestHealthzDegradesAndRecovers(t *testing.T) {
	rb, eng, _, _, base := testStack(t)

	if code, body := get(t, base+"/healthz"); code != 200 {
		t.Fatalf("healthy engine: /healthz = %d (%s)", code, body)
	}

	// Every rebuild fails while the injector is wired at P=1.
	inj := faultinject.New(faultinject.Config{Seed: 7, RebuildErrorP: 1})
	eng.SetRebuildFault(inj.RebuildFault)
	mutate(t, rb, "jeans?", "jeans")
	eng.Acquire() // failed rebuild → degraded, stale snapshot kept

	code, body := get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded engine: /healthz = %d (%s)", code, body)
	}
	var st HealthStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil || !st.Degraded {
		t.Fatalf("degraded body: %s (err %v)", body, err)
	}

	// Clear the fault; the next rebuild succeeds and health recovers.
	eng.SetRebuildFault(nil)
	eng.Acquire()
	if code, body := get(t, base+"/healthz"); code != 200 {
		t.Fatalf("recovered engine: /healthz = %d (%s)", code, body)
	}
}

func mutate(t *testing.T, rb *core.Rulebase, src, target string) {
	t.Helper()
	r, err := core.NewWhitelist(src, target)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Add(r, "ops"); err != nil {
		t.Fatal(err)
	}
}

func TestReadyzQueueWatermark(t *testing.T) {
	depth := 0
	var mu sync.Mutex
	srv, err := New(Options{
		Registry:       obs.NewRegistry(),
		ReadyWatermark: 0.5,
		Health: func() HealthStatus {
			mu.Lock()
			defer mu.Unlock()
			return HealthStatus{Ready: true, QueueDepth: depth, QueueCapacity: 10}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	base := "http://" + addr

	if code, _ := get(t, base+"/readyz"); code != 200 {
		t.Fatalf("empty queue: /readyz = %d", code)
	}
	mu.Lock()
	depth = 5 // at the 0.5 * 10 watermark
	mu.Unlock()
	if code, _ := get(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("saturated queue: /readyz = %d", code)
	}
	mu.Lock()
	depth = 4
	mu.Unlock()
	if code, _ := get(t, base+"/readyz"); code != 200 {
		t.Fatalf("drained queue: /readyz = %d", code)
	}
}

func TestDecisionsTailAndFilters(t *testing.T) {
	_, _, audit, _, base := testStack(t)
	for i := 0; i < 5; i++ {
		audit.Observe(&obs.DecisionRecord{
			ItemID: fmt.Sprintf("it-%d", i), Path: obs.PathBatchGate,
			Outcome: obs.OutcomeClassified, Fired: []string{"r1"},
		})
	}
	audit.Observe(&obs.DecisionRecord{
		ItemID: "bad", Path: obs.PathClassifier,
		Outcome: obs.OutcomeDeclined, Vetoed: []string{"r9"}, Reason: "no-votes",
	})

	code, body := get(t, base+"/decisions?n=3")
	if code != 200 {
		t.Fatalf("/decisions = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 3 {
		t.Fatalf("n=3 returned %d lines:\n%s", len(lines), body)
	}
	var rec obs.DecisionRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("NDJSON line did not parse: %v", err)
	}
	if rec.ItemID != "bad" {
		t.Errorf("newest-last ordering: last line is %q", rec.ItemID)
	}

	// Filters: by vetoing rule ID, by outcome, conjunctive with path.
	if _, body := get(t, base+"/decisions?rule=r9"); strings.Count(body, "\n") != 1 {
		t.Errorf("rule=r9 filter:\n%s", body)
	}
	if _, body := get(t, base+"/decisions?outcome=declined&path=batch-gate"); strings.TrimSpace(body) != "" {
		t.Errorf("conjunctive filter should be empty:\n%s", body)
	}
	if code, _ := get(t, base+"/decisions?n=zero"); code != http.StatusBadRequest {
		t.Errorf("bad n accepted: %d", code)
	}
}

// TestDecisionsExport: /decisions/export serves the full retained ring as a
// downloadable NDJSON attachment (not capped by DecisionsLimit), with ?n=
// and the conjunctive filters behaving like /decisions.
func TestDecisionsExport(t *testing.T) {
	_, _, audit, _, base := testStack(t)
	// More records than the default /decisions cap would matter for, fewer
	// than the 128-slot ring so nothing is evicted.
	for i := 0; i < 100; i++ {
		audit.Observe(&obs.DecisionRecord{
			ItemID: fmt.Sprintf("it-%d", i), Path: obs.PathBatchGate,
			Outcome: obs.OutcomeClassified, Fired: []string{"r1"},
		})
	}
	audit.Observe(&obs.DecisionRecord{
		ItemID: "bad", Path: obs.PathClassifier,
		Outcome: obs.OutcomeDeclined, Vetoed: []string{"r9"},
	})

	resp, err := http.Get(base + "/decisions/export")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("/decisions/export = %d", resp.StatusCode)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, "attachment") {
		t.Fatalf("Content-Disposition = %q, want an attachment", cd)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 101 {
		t.Fatalf("export returned %d lines, want the full ring (101)", len(lines))
	}
	var first, last obs.DecisionRecord
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if first.ItemID != "it-0" || last.ItemID != "bad" {
		t.Fatalf("export order: first=%q last=%q, want oldest-first", first.ItemID, last.ItemID)
	}

	if _, body := get(t, base+"/decisions/export?n=7"); strings.Count(strings.TrimSpace(body), "\n") != 6 {
		t.Errorf("n=7 export:\n%s", body)
	}
	if _, body := get(t, base+"/decisions/export?rule=r9"); strings.Count(body, "\n") != 1 {
		t.Errorf("rule=r9 export filter:\n%s", body)
	}
	if code, _ := get(t, base+"/decisions/export?n=-1"); code != http.StatusBadRequest {
		t.Errorf("bad n accepted: %d", code)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	rb, eng, _, _, base := testStack(t)
	mutate(t, rb, "jeans?", "jeans")
	eng.Acquire()

	code, body := get(t, base+"/snapshot")
	if code != 200 {
		t.Fatalf("/snapshot = %d", code)
	}
	var info SnapshotInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != eng.Current().Version() || info.ActiveRules != 2 {
		t.Fatalf("snapshot info = %+v", info)
	}
}

func TestPprofIndex(t *testing.T) {
	_, _, _, _, base := testStack(t)
	code, body := get(t, base+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d:\n%.200s", code, body)
	}
}

// TestEndpointsConcurrent hammers every read endpoint while the audit ring
// and the engine churn — the -race regression for the ops surface.
func TestEndpointsConcurrent(t *testing.T) {
	rb, eng, audit, _, base := testStack(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // audit writer
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				audit.Observe(&obs.DecisionRecord{ItemID: fmt.Sprintf("w-%d", i), Path: obs.PathPerItem, Outcome: obs.OutcomeClassified})
			}
		}
	}()
	wg.Add(1)
	go func() { // rulebase mutator + rebuilds
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				mutate(t, rb, fmt.Sprintf("tok%da?", i), "rings")
				eng.Acquire()
			}
		}
	}()

	paths := []string{"/metrics", "/healthz", "/readyz", "/decisions?n=16", "/snapshot"}
	var cg sync.WaitGroup
	for _, p := range paths {
		for k := 0; k < 2; k++ {
			cg.Add(1)
			go func(p string) {
				defer cg.Done()
				for i := 0; i < 25; i++ {
					if code, _ := get(t, base+p); code >= 500 && code != http.StatusServiceUnavailable {
						t.Errorf("%s returned %d", p, code)
						return
					}
				}
			}(p)
		}
	}
	cg.Wait()
	close(stop)
	wg.Wait()
}
