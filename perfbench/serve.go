package main

import (
	"context"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/chimera"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Open-loop rates in requests per second, calibrated once against the
// closed-loop capacity of this repository's first benchmarked commit on a
// 2-vCPU host (about capacityRate) and never rescaled, so a faster program
// shows as lower latency at the same offered load.
const (
	capacityRate = 67.0
	lowRate      = 0.30 * capacityRate
	// sloMs is the latency limit behind serve.slo_miss_frac.
	sloMs = 100
	// openRequests is how many requests the open loop at lowRate sends:
	// enough for a p75 with ten requests beyond it in each latency window.
	// The open loop takes at most openShare of the run; the rest is the
	// closed-loop saturation phase.
	openRequests = 400
	openShare    = 0.7
	// latencyWindows is how many consecutive stretches of the open loop the
	// latency percentiles are taken over; the reported figure is their
	// median, so a host stall that slows a few seconds of the run moves the
	// windows it falls in and not the figure.
	latencyWindows = 10
	// mutationEvery is the background analyst's pace on serve.
	mutationEvery = 500 * time.Millisecond
	// serviceSample requests are replayed through Pipeline.ClassifyCtx when
	// traced; replaySample requests' items go through the layer replay.
	serviceSample = 100
	replaySample  = 125
)

// runServe sends 8-item requests to the server: an open loop at the low
// rate, then a closed loop with one client per worker, while a background
// analyst toggles rules twice a second. 80% of items repeat hot content.
func runServe(e *env) error {
	sys, setupS, err := setUpRepeated(e.in, e.workers, setupOpts{server: true})
	if err != nil {
		return err
	}
	defer sys.close()
	r := e.rep
	r.e2e["setup_s"] = setupS
	r.e2e["heap_mb"] = heapMB()
	e.settings["rules"] = sys.p.Rules.Len()

	openSecs := float64(openRequests) / lowRate
	openT := min(time.Duration(openShare*float64(e.seconds)), time.Duration(openSecs*float64(time.Second)))
	satT := e.seconds - openT
	src := &requestSource{in: e.in}

	t := newLoadTarget(sys)
	reg0, audit0 := sys.reg.Snapshot(), sys.p.Audit.Captured()
	bg := startMutator(e, sys, mutationEvery)
	openOuts, openSent := openLoop(t, src, lowRate, openT)
	slices.SortFunc(openOuts, func(a, b *outcome) int { return a.due.Compare(b.due) })
	satOuts, satWall, satSent := closedLoop(t, e.workers, src, satT)
	mutations, builds := bg.stop()
	reg1, audit1 := sys.reg.Snapshot(), sys.p.Audit.Captured()
	all := append(append([]*outcome(nil), openOuts...), satOuts...)

	if err := checkTickets(openSent+satSent, all, readBooks(reg1).minus(readBooks(reg0)), e.in.sz.ReqItems); err != nil {
		r.problem("serve accounting: %v", err)
	}
	r.attempted = int64(len(all))
	for _, o := range all {
		if o.err != nil {
			r.failed++
		}
	}
	var q quality
	q.addOutcomes(all)
	lat := latencies(openOuts, openT)
	r.e2e["items_per_s"] = float64(served(satOuts)) / satWall.Seconds()
	r.e2e["precision"] = q.precision()
	r.e2e["recall"] = q.recall()
	r.e2e["p50_ms"] = windowedQuantile(lat, latencyWindows, 0.50)
	r.e2e["p75_ms"] = windowedQuantile(lat, latencyWindows, 0.75)
	e.settings["open_requests"] = len(openOuts)
	e.settings["saturation_requests"] = len(satOuts)
	e.settings["mutations"] = mutations

	if e.tr == nil {
		return nil
	}
	m := r.layers
	m["serve.repeat_frac"] = e.in.repeatFrac(all)
	m["obs.audit_captured_per_item"] = ratio(float64(audit1-audit0), float64(served(all)))
	serveLayer(e, sys, reg0, reg1, openOuts, all, mutations, m)
	builds.fill(m)
	r.copyTraced()
	return nil
}

// latencies returns each open-loop request's time from when it was due to
// when it resolved, in ms; a failed request counts as taking the whole
// phase, so it misses any latency limit.
func latencies(outs []*outcome, phase time.Duration) []float64 {
	out := make([]float64, len(outs))
	for i, o := range outs {
		if o.err != nil {
			out[i] = ms(phase)
			continue
		}
		out[i] = ms(o.latency())
	}
	return out
}

// serveLayer fills the serve-layer metrics from the outcomes and the
// registry, then replays a sample of the requests for the other layers.
// Call it after the load has stopped.
func serveLayer(e *env, sys *system, reg0, reg1 *obs.Snapshot, open, all []*outcome, mutations int, m map[string]float64) {
	var submit, sojourn, depth, late, stale []float64
	slo := 0
	for _, o := range all {
		submit = append(submit, float64(o.submit)/1e3)
		depth = append(depth, o.depth)
		if o.err == nil {
			sojourn = append(sojourn, ms(o.done.Sub(o.sent)))
			stale = append(stale, float64(o.rbV-o.snapV))
		}
	}
	for _, o := range open {
		late = append(late, ms(o.sent.Sub(o.due)))
		if o.err != nil || ms(o.latency()) > sloMs {
			slo++
		}
	}
	delta := func(name string) float64 { return counter(reg1, name) - counter(reg0, name) }
	m["serve.submit_us_p50"] = median(submit)
	m["serve.submit_us_p99"] = quantile(submit, 0.99)
	m["serve.sojourn_ms_p50"] = median(sojourn)
	m["serve.sojourn_ms_p99"] = quantile(sojourn, 0.99)
	m["serve.queue_depth_mean"] = mean(depth)
	m["serve.queue_depth_max"] = maxOf(depth)
	m["serve.generator_late_ms_max"] = maxOf(late)
	m["serve.shed"] = delta(serve.MetricShed)
	m["serve.expired"] = delta(serve.MetricDeadlineExpired)
	m["serve.slo_miss_frac"] = ratio(float64(slo), float64(len(open)))
	swaps := delta(serve.MetricSnapshotSwaps)
	m["serve.snapshot_swaps"] = swaps
	m["serve.swaps_per_mutation"] = ratio(swaps, float64(mutations))
	m["serve.stale_versions_mean"] = mean(stale)
	hits, misses := delta(serve.MetricCacheHits), delta(serve.MetricCacheMisses)
	m["serve.cache_hit_frac"] = ratio(hits, hits+misses)
	ruleCounters(reg0, reg1, m)
	m["core.rules_active"] = float64(len(sys.p.Rules.Active()))

	stages := map[string]int{}
	var n int
	for _, o := range all {
		for _, d := range o.decs {
			stages[stageLabel(d)]++
			n++
		}
	}
	stageFracs(stages, n, m)

	// Post-hoc spans for each request: due → resolved, split into SubmitCtx
	// and the wait on the ticket.
	for i, o := range all {
		if o.err != nil {
			continue
		}
		root := e.tr.record("request", int64(i), -1, o.due, o.done.Sub(o.due))
		e.tr.record("serve.Server.SubmitCtx", int64(i), root, o.sent, o.submit)
		e.tr.record("serve.Ticket.Wait", int64(i), root, o.sent.Add(o.submit), o.done.Sub(o.sent.Add(o.submit)))
	}

	var service []float64
	ctx := context.Background()
	for i, o := range all[:min(len(all), serviceSample)] {
		sp := e.tr.begin("service:chimera.Pipeline.ClassifyCtx", int64(i), -1)
		for _, it := range freshCopies(o.items) {
			sys.p.ClassifyCtx(ctx, it)
		}
		service = append(service, ms(e.tr.end(sp)))
	}
	m["serve.service_ms_per_request"] = mean(service)
	var items []*catalog.Item
	for _, o := range all[:min(len(all), replaySample)] {
		items = append(items, o.items...)
	}
	var acc layerAcc
	replayLayers(e, sys, items, -1, &acc)
	acc.fill(m)
	m["chimera.residual_us_per_item"] = 0 // only meaningful against a batch
}

// stageLabel mirrors the pipeline's BatchProfile.Stages labels for a
// decision: the deciding stage, or "declined:<reason family>".
func stageLabel(d chimera.Decision) string {
	if !d.Declined {
		return d.Reason
	}
	family, _, _ := strings.Cut(d.Reason, ":")
	return "declined:" + family
}

// mutator is a background analyst that disables a random active rule on one
// tick and re-enables it on the next.
type mutator struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	n      int
	builds buildCosts
}

func startMutator(e *env, sys *system, every time.Duration) *mutator {
	mu := &mutator{stopCh: make(chan struct{})}
	rb := sys.p.Rules
	rng := rand.New(rand.NewPCG(e.in.seed, 2))
	active := rb.Active()
	scratch := obs.NewRegistry()
	mu.wg.Add(1)
	go func() {
		defer mu.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		var off *core.Rule
		for {
			select {
			case <-mu.stopCh:
				if off != nil {
					_ = rb.Enable(off.ID, "bench-analyst", "restore")
				}
				return
			case <-tick.C:
			}
			if off != nil {
				_ = rb.Enable(off.ID, "bench-analyst", "restore")
				off = nil
			} else {
				off = active[rng.IntN(len(active))]
				_ = rb.Disable(off.ID, "bench-analyst", "scale down")
			}
			mu.n++
			if e.tr != nil {
				mu.builds.measure(e, rb, scratch, int64(-1-mu.n))
			}
		}
	}()
	return mu
}

// stop ends the background analyst and returns its mutation count and the
// traced build costs.
func (mu *mutator) stop() (int, *buildCosts) {
	close(mu.stopCh)
	mu.wg.Wait()
	return mu.n, &mu.builds
}
