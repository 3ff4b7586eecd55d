package chimera

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/serve"
)

// fixtureWithObs is fixture with a private registry, so metric assertions do
// not cross tests through the shared default registry.
func fixtureWithObs(t *testing.T, seed uint64, reg *obs.Registry) (*catalog.Catalog, *Pipeline) {
	t.Helper()
	cat := catalog.New(catalog.Config{Seed: seed, NumTypes: 40})
	p := New(Config{Seed: seed, Obs: reg})
	p.Train(cat.LabeledData(2000))
	add := func(r *core.Rule, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Rules.Add(r, "ana"); err != nil {
			t.Fatal(err)
		}
	}
	add(core.NewWhitelist("rings?", "rings"))
	add(core.NewWhitelist("jeans?", "jeans"))
	add(core.NewGate("(satchel | purse | tote)", "handbags"))
	return cat, p
}

// TestClassifyDegradedPropertySubsetOfManualQueue is the degraded-mode
// property test: for any batch, the gate-only path yields exactly one
// decision per item (no silent drops); every decision is either a genuine
// gate-stage decision (gatekeeper or filtered) or a decline with reason
// "degraded"; and the manual-queue delta equals exactly the number of
// declined decisions. Degraded routing is a subset of manual-queue routing,
// never a black hole.
func TestClassifyDegradedPropertySubsetOfManualQueue(t *testing.T) {
	cat, p := fixture(t, 91)
	defer p.Close()
	p.Snapshots().Acquire() // publish a snapshot current with the rules above
	for _, size := range []int{1, 7, 250, 1000} {
		batch := cat.GenerateBatch(catalog.BatchSpec{Size: size, Epoch: 0})
		before := p.ManualQueue()
		decisions, snap := p.ClassifyDegraded(batch)
		if snap == nil {
			t.Fatalf("size %d: degraded decisions without a snapshot", size)
		}
		if len(decisions) != len(batch) {
			t.Fatalf("size %d: %d decisions for %d items — items dropped", size, len(decisions), len(batch))
		}
		declined := 0
		for i, d := range decisions {
			if d.Item != batch[i] {
				t.Fatalf("size %d: decision %d not aligned with its item", size, i)
			}
			switch {
			case !d.Declined && d.Reason == "gatekeeper":
				// Gate decided; full-confidence decision survives degraded mode.
			case d.Declined && strings.HasPrefix(d.Reason, "filtered:"):
				declined++
			case d.Declined && d.Reason == "degraded":
				declined++
			default:
				t.Fatalf("size %d: decision outside the degraded vocabulary: %+v", size, d)
			}
		}
		if got := p.ManualQueue() - before; got != declined {
			t.Fatalf("size %d: manual queue grew by %d, want %d (declined) — degraded decisions must be a subset of manual-queue routing", size, got, declined)
		}
	}
}

// TestClassifyDegradedStageAccounting: degraded declines land in the
// per-stage decision counter under declined:degraded, and item/decline
// totals move exactly as on the full path.
func TestClassifyDegradedStageAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	cat, p := fixtureWithObs(t, 92, reg)
	defer p.Close()
	p.Snapshots().Acquire()
	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 300, Epoch: 0})
	out, _ := p.ClassifyDegraded(batch)
	degraded := 0
	for _, d := range out {
		if d.Declined && d.Reason == "degraded" {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("a mixed batch should leave some items gate-undecided (reason degraded)")
	}
	if got := reg.Counter(MetricDecisions, "stage", "declined:degraded").Value(); got != int64(degraded) {
		t.Fatalf("declined:degraded stage counter = %d, want %d", got, degraded)
	}
	if got := reg.Counter(MetricItems).Value(); got != int64(len(batch)) {
		t.Fatalf("item counter = %d, want %d", got, len(batch))
	}
}

// TestResilientClientDegradesOnSaturation: with the one worker parked on
// injected handler latency and the queue at the watermark, Process answers
// every item via the gate-only path instead of surfacing ErrQueueFull —
// shedding silently is not an outcome.
func TestResilientClientDegradesOnSaturation(t *testing.T) {
	reg := obs.NewRegistry()
	cat, p := fixtureWithObs(t, 93, reg)
	defer p.Close()

	inj := faultinject.New(faultinject.Config{
		Seed: 5, HandlerLatencyP: 1, HandlerLatency: 50 * time.Millisecond,
	})
	rc := p.NewResilientClient(
		serve.ServerOptions{Workers: 1, QueueDepth: 2, Obs: reg},
		ResilienceOptions{
			Retry:             serve.RetryOptions{MaxAttempts: 2, BaseDelay: time.Microsecond, Seed: 5},
			DegradedWatermark: 0.5, // watermark = 1 queued batch
			Faults:            inj,
		})
	defer rc.Server().Drain()

	// Two batches of 4: the worker parks on the first (4 × 50ms of injected
	// latency), the second sits in the queue, so the depth gauge holds at the
	// watermark for the whole test body.
	slow := cat.GenerateBatch(catalog.BatchSpec{Size: 4, Epoch: 0})
	for i := 0; i < 2; i++ {
		if _, err := rc.Server().Submit(slow); err != nil {
			t.Fatal(err)
		}
	}
	if !rc.DegradedMode() {
		t.Fatal("client not in degraded mode with the queue at the watermark")
	}

	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 120, Epoch: 0})
	before := p.ManualQueue()
	out, snap, err := rc.Process(context.Background(), batch)
	if err != nil {
		t.Fatalf("Process must not fail on saturation: %v", err)
	}
	if len(out) != len(batch) {
		t.Fatalf("%d decisions for %d items", len(out), len(batch))
	}
	if snap == nil {
		t.Fatal("degraded decisions must still reference a snapshot")
	}
	declined := 0
	for _, d := range out {
		if d.Declined {
			declined++
		}
	}
	if got := p.ManualQueue() - before; got != declined {
		t.Fatalf("manual queue grew by %d, want %d", got, declined)
	}
	if got := reg.Counter(MetricDegradedBatches).Value(); got != 1 {
		t.Fatalf("degraded-batch counter = %d, want 1", got)
	}
	if got := reg.Counter(MetricDegradedItems).Value(); got != int64(len(batch)) {
		t.Fatalf("degraded-item counter = %d, want %d", got, len(batch))
	}
	// The parked worker is asynchronous: give it a moment to demonstrate the
	// injected latency actually fired.
	deadline := time.Now().Add(2 * time.Second)
	for inj.Total() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler latency was never injected")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResilientClientDegradesWhenEngineDegraded: a failed snapshot rebuild
// flips the engine to degraded; the client notices, routes around the queue
// entirely, and resumes full service once a rebuild succeeds again.
func TestResilientClientDegradesWhenEngineDegraded(t *testing.T) {
	reg := obs.NewRegistry()
	cat, p := fixtureWithObs(t, 94, reg)
	defer p.Close()
	rc := p.NewResilientClient(serve.ServerOptions{Workers: 2, QueueDepth: 8, Obs: reg}, ResilienceOptions{})
	defer rc.Server().Drain()

	inj := faultinject.New(faultinject.Config{Seed: 6, RebuildErrorP: 1})
	p.Snapshots().SetRebuildFault(inj.RebuildFault)
	// Mutate so the async loop attempts (and fails) a rebuild.
	mutate := func(pattern, typ string) {
		t.Helper()
		r, err := core.NewWhitelist(pattern, typ)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Rules.Add(r, "chaos"); err != nil {
			t.Fatal(err)
		}
	}
	mutate("satchels?", "handbags")
	deadline := time.Now().Add(2 * time.Second)
	for !p.Snapshots().Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("engine never became degraded despite a p=1 rebuild fault")
		}
		time.Sleep(time.Millisecond)
	}
	if !rc.DegradedMode() {
		t.Fatal("client does not report degraded mode while the engine is degraded")
	}

	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 50, Epoch: 0})
	out, _, err := rc.Process(context.Background(), batch)
	if err != nil || len(out) != len(batch) {
		t.Fatalf("degraded Process: err=%v decisions=%d", err, len(out))
	}
	if reg.Counter(MetricDegradedBatches).Value() == 0 {
		t.Fatal("degraded-batch counter did not move")
	}

	// Clearing the fault recovers: the next mutation's rebuild succeeds and
	// the client leaves degraded mode.
	p.Snapshots().SetRebuildFault(nil)
	mutate("totes?", "handbags")
	deadline = time.Now().Add(2 * time.Second)
	for p.Snapshots().Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("engine never recovered after the fault was cleared")
		}
		time.Sleep(time.Millisecond)
	}
	if rc.DegradedMode() {
		t.Fatal("client still degraded after recovery with an empty queue")
	}
	out, snap, err := rc.Process(context.Background(), batch)
	if err != nil || snap == nil || len(out) != len(batch) {
		t.Fatalf("recovered Process: err=%v snap=%v decisions=%d", err, snap, len(out))
	}
}

// TestResilientClientPropagatesRealErrors: shutdown and an expired caller
// context are surfaced, not degraded around — the caller must be able to
// tell "the system answered conservatively" from "the system is gone" or
// "I gave up waiting".
func TestResilientClientPropagatesRealErrors(t *testing.T) {
	reg := obs.NewRegistry()
	cat, p := fixtureWithObs(t, 95, reg)
	defer p.Close()
	rc := p.NewResilientClient(serve.ServerOptions{Workers: 1, QueueDepth: 4, Obs: reg}, ResilienceOptions{})
	rc.Server().Drain()

	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 5, Epoch: 0})
	if _, _, err := rc.Process(context.Background(), batch); !errors.Is(err, serve.ErrShutdown) {
		t.Fatalf("got %v, want ErrShutdown", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := rc.Process(ctx, batch); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestResilientClientIgnoresOtherServersQueue: the degraded watermark is
// judged on the client's own queue. A second server on the same pipeline
// registry that backs up must not push an idle client into degraded mode,
// even though both servers write the shared serve_queue_depth gauge.
func TestResilientClientIgnoresOtherServersQueue(t *testing.T) {
	reg := obs.NewRegistry()
	cat, p := fixtureWithObs(t, 96, reg)
	defer p.Close()
	rc := p.NewResilientClient(serve.ServerOptions{Workers: 1, QueueDepth: 4, Obs: reg},
		ResilienceOptions{DegradedWatermark: 0.5}) // watermark = 2 queued batches
	defer rc.Server().Drain()

	release := make(chan struct{})
	other := serve.NewServer(p.Snapshots(), func(ctx context.Context, snap *serve.Snapshot, it *catalog.Item) int {
		<-release
		return 0
	}, serve.ServerOptions{Workers: 1, QueueDepth: 8, Obs: p.Obs})
	defer other.Drain()
	defer close(release)

	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 1, Epoch: 0})
	for i := 0; i < 6; i++ {
		if _, err := other.Submit(batch); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Gauge(serve.MetricQueueDepth).Value(); got < 5 {
		t.Fatalf("shared queue-depth gauge = %v, want the other server's backlog (>= 5)", got)
	}
	if rc.DegradedMode() {
		t.Fatal("idle client reports degraded mode because another server's queue is backed up")
	}
}
