package chimera

import (
	"context"
	"errors"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Metric families recorded by the resilience layer.
const (
	// MetricDegradedItems counts items decided on the gate-only degraded
	// path; MetricDegradedBatches counts the batches that took it.
	MetricDegradedItems   = "chimera_degraded_items_total"
	MetricDegradedBatches = "chimera_degraded_batches_total"
)

// ResilienceOptions parameterizes a ResilientClient. Zero values take
// defaults.
type ResilienceOptions struct {
	// Retry configures the backoff retrier over queue-full sheds.
	Retry serve.RetryOptions
	// DegradedWatermark is the queue-load fraction (of the server's queue
	// capacity) at or above which new batches bypass the queue onto the
	// gate-only degraded path (default 0.9; values outside (0,1] clamp).
	DegradedWatermark float64
	// Faults optionally injects per-item handler latency into the server's
	// workers, and is available to the caller to also wire into the
	// engine's rebuild path (Engine.SetRebuildFault) and crowd.Config.
	Faults *faultinject.Injector
}

// ResilientClient is the failure-aware frontend over a Pipeline server: it
// submits batches with caller-deadline propagation and retry-with-backoff,
// and when the serving layer cannot take the work at all — the queue is
// saturated past the load watermark, retries are exhausted, or the snapshot
// engine is degraded after a failed rebuild — it falls back to the gate-only
// degraded decision path instead of shedding silently. Degraded items are
// routed to the manual queue with stage "degraded": recall is sacrificed,
// item accounting never is.
type ResilientClient struct {
	p      *Pipeline
	srv    *serve.Server[Decision]
	retr   *serve.Retrier[Decision]
	faults *faultinject.Injector

	watermark int

	degItems   *obs.Counter
	degBatches *obs.Counter
}

// NewResilientClient builds a server over the pipeline (with fault-injected
// handler latency when ropts.Faults is set) and wraps it in retry/backoff
// and degraded-mode fallback. The caller owns Shutdown on the client.
func (p *Pipeline) NewResilientClient(sopts serve.ServerOptions, ropts ResilienceOptions) *ResilientClient {
	if sopts.Obs == nil {
		sopts.Obs = p.Obs
	}
	if sopts.Audit == nil {
		sopts.Audit = p.Audit
	}
	inj := ropts.Faults
	srv := serve.NewServer(p.snaps, func(ctx context.Context, snap *serve.Snapshot, it *catalog.Item) Decision {
		if d := inj.HandlerDelay(); d > 0 {
			time.Sleep(d)
		}
		return p.classifyWith(ctx, it, snap)
	}, sopts)

	w := ropts.DegradedWatermark
	if w <= 0 || w > 1 {
		w = 0.9
	}
	watermark := int(w * float64(srv.QueueCapacity()))
	if watermark < 1 {
		watermark = 1
	}
	rc := &ResilientClient{
		p:          p,
		srv:        srv,
		retr:       serve.NewRetrier(srv, ropts.Retry),
		faults:     inj,
		watermark:  watermark,
		degItems:   p.Obs.Counter(MetricDegradedItems),
		degBatches: p.Obs.Counter(MetricDegradedBatches),
	}
	p.Obs.Help(MetricDegradedItems, "items decided on the gate-only degraded path")
	p.Obs.Help(MetricDegradedBatches, "batches that fell back to degraded mode")
	return rc
}

// Server exposes the underlying serve.Server (for Shutdown/Drain and tests).
func (rc *ResilientClient) Server() *serve.Server[Decision] { return rc.srv }

// Retrier exposes the backoff retrier (for budget inspection).
func (rc *ResilientClient) Retrier() *serve.Retrier[Decision] { return rc.retr }

// DegradedMode reports whether the next batch would take the degraded path:
// the client's own server queue sits at or above the load watermark, or the
// snapshot engine is serving a stale snapshot after a failed rebuild.
func (rc *ResilientClient) DegradedMode() bool {
	return rc.srv.QueueDepth() >= rc.watermark || rc.p.snaps.Degraded()
}

// Process classifies one batch end to end under the resilience policy:
//
//  1. degraded mode active → gate-only decisions immediately (no queueing);
//  2. otherwise submit with retry/backoff and wait under the caller's ctx;
//  3. retries exhausted on a saturated queue → gate-only decisions — the
//     overloaded system answers every item, it just answers conservatively;
//  4. shutdown or an expired caller deadline → the error, unmasked.
//
// Every submitted item therefore resolves exactly once: with a full
// decision, a degraded decision, or an explicit error — never silence.
func (rc *ResilientClient) Process(ctx context.Context, items []*catalog.Item) ([]Decision, *serve.Snapshot, error) {
	ctx, _ = obs.EnsureRequestID(ctx, "req")
	if rc.DegradedMode() {
		out, snap := rc.degrade(ctx, items)
		return out, snap, nil
	}
	ticket, err := rc.retr.Submit(ctx, items)
	if err != nil {
		if errors.Is(err, serve.ErrQueueFull) {
			out, snap := rc.degrade(ctx, items)
			return out, snap, nil
		}
		return nil, nil, err
	}
	return ticket.WaitContext(ctx)
}

// degrade runs the gate-only decision path over one batch: items the Gate
// Keeper (or its Filter) decides keep their normal decision; everything else
// is declined to the manual queue with reason "degraded". Manual-queue and
// per-stage accounting run exactly as on the full path, so served + declined
// totals still add up across modes.
func (rc *ResilientClient) degrade(ctx context.Context, items []*catalog.Item) ([]Decision, *serve.Snapshot) {
	out, snap := rc.p.ClassifyDegradedCtx(ctx, items)
	rc.degBatches.Inc()
	rc.degItems.Add(int64(len(items)))
	return out, snap
}

// ClassifyDegraded is the pipeline's gate-only decision path, used by the
// resilience layer under overload and rebuild failure: only stage 1 (Gate
// Keeper + Filter) runs; undecided items are declined with reason
// "degraded" and routed to the manual queue. It reads the lock-free Current
// snapshot — degraded mode must never wait on the rulebase.
func (p *Pipeline) ClassifyDegraded(items []*catalog.Item) ([]Decision, *serve.Snapshot) {
	return p.ClassifyDegradedCtx(context.Background(), items)
}

// ClassifyDegradedCtx is ClassifyDegraded with request-ID propagation. Every
// item yields an always-captured audit record on the degraded path — the
// records an operator tails first during an incident.
func (p *Pipeline) ClassifyDegradedCtx(ctx context.Context, items []*catalog.Item) ([]Decision, *serve.Snapshot) {
	ctx, _ = obs.EnsureRequestID(ctx, "degraded")
	snap := p.snaps.Current()
	out := make([]Decision, len(items))
	declined := 0
	for i, it := range items {
		start := time.Now()
		gv := snap.Gate().Apply(it)
		if d, ok := p.gateDecision(it, snap, gv); ok {
			out[i] = d
		} else {
			out[i] = Decision{Item: it, Declined: true, Reason: "degraded"}
		}
		p.auditDecision(ctx, snap.Version(), out[i], obs.PathDegraded, gv, nil, "gate", time.Since(start), "", 0)
		if out[i].Declined {
			declined++
		}
	}
	p.mu.Lock()
	p.manualQ += declined
	qdepth := p.manualQ
	p.mu.Unlock()
	for _, d := range out {
		p.Obs.Counter(MetricDecisions, "stage", stageOf(d)).Inc()
	}
	p.Obs.Counter(MetricItems).Add(int64(len(items)))
	p.Obs.Counter(MetricDeclined).Add(int64(declined))
	p.Obs.Gauge(MetricQueueDepth).Set(float64(qdepth))
	return out, snap
}
