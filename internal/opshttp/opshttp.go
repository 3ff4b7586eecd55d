// Package opshttp is the embeddable live-ops surface: a small HTTP server
// exposing the observability layer over the endpoints an operator (or a
// scraper) expects —
//
//	/metrics       Prometheus text exposition of an obs.Registry
//	/healthz       liveness; 503 while the serving engine is degraded
//	/readyz        readiness; 503 when not ready or the queue is past the
//	               load watermark
//	/decisions     NDJSON tail of the decision-provenance ring, filterable
//	               by rule ID, path, and outcome
//	/decisions/export
//	               same records as a downloadable NDJSON attachment,
//	               defaulting to the FULL retained ring (incident evidence
//	               capture, not a live tail)
//	/snapshot      active rule-set version + rule health summary
//	/debug/pprof/  the standard Go profiling endpoints
//
// The package depends only on obs and the standard library: health and
// snapshot state are supplied as provider funcs, so wiring to the serve
// engine happens in the binary, not here, and the package stays importable
// from anywhere without cycles.
package opshttp

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// HealthStatus is one health probe result, produced by the Health provider
// on every /healthz and /readyz request.
type HealthStatus struct {
	// Degraded mirrors the serving engine: the last snapshot rebuild failed
	// and a stale snapshot is being served. /healthz returns 503 while set.
	Degraded bool `json:"degraded"`
	// Ready gates /readyz independently of liveness (e.g. still warming up).
	Ready bool `json:"ready"`
	// QueueDepth / QueueCapacity describe the serving queue;
	// /readyz returns 503 when depth reaches the watermark fraction of
	// capacity (see Options.ReadyWatermark).
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// SnapshotVersion is the rulebase snapshot currently served.
	SnapshotVersion uint64 `json:"snapshot_version"`
	// Detail is a free-form operator hint ("rebuild failed: ...", "ok").
	Detail string `json:"detail,omitempty"`
}

// SnapshotInfo describes the active rule set for /snapshot.
type SnapshotInfo struct {
	Version     uint64   `json:"version"`
	ActiveRules int      `json:"active_rules"`
	RuleIDs     []string `json:"rule_ids,omitempty"`
	// RuleHealth is the telemetry-ranked health report (any JSON-encodable
	// shape; typically []core.RuleHealth).
	RuleHealth any `json:"rule_health,omitempty"`
}

// Options wires a Server to the process's observability state. Registry is
// required; the rest degrade gracefully when absent (endpoints answer with
// what they have).
type Options struct {
	// Registry backs /metrics (required).
	Registry *obs.Registry
	// Audit backs /decisions; nil serves an empty tail.
	Audit *obs.AuditLog
	// Health is called per health request; nil means always live and ready.
	Health func() HealthStatus
	// Snapshot is called per /snapshot request; nil returns 404 there.
	Snapshot func() SnapshotInfo
	// ReadyWatermark is the queue-load fraction at or above which /readyz
	// flips to 503 (default 0.9; values outside (0,1] clamp).
	ReadyWatermark float64
	// DecisionsLimit caps ?n= on /decisions (default 256).
	DecisionsLimit int
}

// Server is the ops HTTP server. Create with New, bind with Start, stop
// with Close.
type Server struct {
	opts Options

	mu   sync.Mutex
	http *http.Server
	addr string
}

// New validates opts and assembles the server (not yet listening).
func New(opts Options) (*Server, error) {
	if opts.Registry == nil {
		return nil, fmt.Errorf("opshttp: Options.Registry is required")
	}
	if opts.ReadyWatermark <= 0 || opts.ReadyWatermark > 1 {
		opts.ReadyWatermark = 0.9
	}
	if opts.DecisionsLimit <= 0 {
		opts.DecisionsLimit = 256
	}
	return &Server{opts: opts}, nil
}

// Handler returns the ops mux — usable standalone (tests, embedding into an
// existing server) without Start.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/decisions", s.handleDecisions)
	mux.HandleFunc("/decisions/export", s.handleDecisionsExport)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start binds addr (use ":0" for an ephemeral port) and serves in a
// background goroutine. It returns the bound address, so callers can print
// or scrape it.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	s.mu.Lock()
	s.http = hs
	s.addr = ln.Addr().String()
	s.mu.Unlock()
	go func() { _ = hs.Serve(ln) }()
	return s.Addr(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// Close shuts the listener down gracefully under ctx.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	hs := s.http
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(s.opts.Registry.PrometheusText()))
}

func (s *Server) health() HealthStatus {
	if s.opts.Health == nil {
		return HealthStatus{Ready: true, Detail: "no health provider wired"}
	}
	return s.opts.Health()
}

func writeHealth(w http.ResponseWriter, st HealthStatus, ok bool) {
	w.Header().Set("Content-Type", "application/json")
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

// handleHealthz is liveness: the process answers and the serving engine is
// not degraded.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.health()
	writeHealth(w, st, !st.Degraded)
}

// handleReadyz is readiness: live, Ready, and the queue below the
// watermark — the signal a load balancer uses to stop routing before the
// server starts shedding.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := s.health()
	ok := !st.Degraded && st.Ready
	if st.QueueCapacity > 0 && st.QueueDepth >= s.watermark(st.QueueCapacity) {
		ok = false
	}
	writeHealth(w, st, ok)
}

// watermark converts a queue capacity into the not-ready depth threshold.
func (s *Server) watermark(capacity int) int {
	wm := int(s.opts.ReadyWatermark * float64(capacity))
	if wm < 1 {
		wm = 1
	}
	return wm
}

// handleDecisions streams the decision tail as NDJSON, newest last.
// Query params: n (max records), rule (fired or vetoed rule ID), path,
// outcome — filters are conjunctive.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n := s.opts.DecisionsLimit
	if v := q.Get("n"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 1 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		if p < n {
			n = p
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if !s.opts.Audit.Enabled() {
		return
	}
	recs := s.opts.Audit.TailFiltered(n, q.Get("rule"), q.Get("path"), q.Get("outcome"))
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		_ = enc.Encode(rec)
	}
}

// handleDecisionsExport is the incident-evidence capture endpoint: the same
// NDJSON records as /decisions but served as a downloadable attachment and
// defaulting to the FULL retained ring rather than the tail limit — an
// operator pulling evidence after an incident wants everything the ring
// still holds, not the last few lines. ?n= narrows to the newest n; the
// rule/path/outcome filters compose the same way as /decisions.
func (s *Server) handleDecisionsExport(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n := s.opts.Audit.Capacity()
	if v := q.Get("n"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 1 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		if p < n {
			n = p
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Disposition", `attachment; filename="decisions.ndjson"`)
	if !s.opts.Audit.Enabled() {
		return
	}
	recs := s.opts.Audit.TailFiltered(n, q.Get("rule"), q.Get("path"), q.Get("outcome"))
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		_ = enc.Encode(rec)
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	if s.opts.Snapshot == nil {
		http.Error(w, "no snapshot provider wired", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.opts.Snapshot())
}
