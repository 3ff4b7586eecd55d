package main

import (
	"context"
	"runtime"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
)

const (
	// checkSample is how many items of each batch are re-classified through
	// Pipeline.Classify and compared with the batch decision.
	checkSample = 50
	// minBatches is the fewest batches a run measures.
	minBatches = 2
	// attributionTolerance bounds how far the replayed layers plus the
	// residual may stray from ProcessBatch busy time, as a share of it.
	attributionTolerance = 0.20
)

// runIngest feeds ProcessBatchCtx fresh next-epoch batches: no repeats, no
// mutations, no server and no persist store, so the ensemble does nearly all
// the work.
func runIngest(e *env) error {
	sys, setupS, err := setUpRepeated(e.in, e.workers, setupOpts{})
	if err != nil {
		return err
	}
	defer sys.close()
	r := e.rep
	r.e2e["setup_s"] = setupS
	r.e2e["heap_mb"] = heapMB()
	e.settings["rules"] = sys.p.Rules.Len()

	ctx := context.Background()
	var busy time.Duration // ProcessBatchCtx wall time, summed
	var waits []float64    // one entry per item: its batch's duration, ms
	var q quality
	var acc layerAcc
	var builds buildCosts
	scratch := obs.NewRegistry()
	stages := map[string]int{}
	var nItems int
	var mallocs, bytes uint64
	audit0 := sys.p.Audit.Captured()
	reg0 := sys.reg.Snapshot()
	for k := 0; k < minBatches || busy+busy/time.Duration(k) <= e.seconds; k++ {
		batch := e.in.batch()
		var m0, m1 runtime.MemStats
		if e.tr != nil {
			runtime.ReadMemStats(&m0)
		}
		sp := e.tr.begin("chimera.Pipeline.ProcessBatchCtx", int64(k), -1)
		start := time.Now()
		res := sys.p.ProcessBatchCtx(ctx, batch)
		d := time.Since(start)
		e.tr.end(sp)
		if e.tr != nil {
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			bytes += m1.TotalAlloc - m0.TotalAlloc
		}
		busy += d
		nItems += len(batch)
		for range batch {
			waits = append(waits, ms(d))
		}
		q.add(res.Decisions)
		for s, n := range res.Profile.Stages {
			stages[s] += n
		}

		sample := e.in.rng.Perm(len(batch))[:min(checkSample, len(batch))]
		bad, first := checkDecisions(sys.p.Classify, batch, res.Decisions, sample)
		r.attempted += int64(len(batch))
		r.failed += int64(bad)
		if bad > 0 {
			r.problem("batch %d: %d of %d sampled decisions differ from Pipeline.Classify; %s", k, bad, len(sample), first)
		}
		if e.tr != nil {
			replayLayers(e, sys, batch, int64(k), &acc)
			builds.measure(e, sys.p.Rules, scratch, int64(k))
		}
	}

	r.e2e["items_per_s"] = float64(nItems) / busy.Seconds()
	r.e2e["precision"] = q.precision()
	r.e2e["recall"] = q.recall()
	r.e2e["p50_ms"] = median(waits)
	r.e2e["p75_ms"] = quantile(waits, 0.75)
	e.settings["batches"] = len(waits) / e.in.sz.BatchSize

	if e.tr == nil {
		return nil
	}
	m := r.layers
	acc.fill(m)
	ruleCounters(reg0, sys.reg.Snapshot(), m)
	builds.fill(m)
	m["core.rules_active"] = float64(len(sys.p.Rules.Active()))
	batchUS := float64(busy.Microseconds()) * float64(e.workers) / float64(nItems)
	m["chimera.batch_us_per_item"] = batchUS
	m["chimera.allocs_per_item"] = float64(mallocs) / float64(nItems)
	m["chimera.bytes_per_item"] = float64(bytes) / float64(nItems)
	stageFracs(stages, nItems, m)
	m["obs.audit_captured_per_item"] = float64(sys.p.Audit.Captured()-audit0) / float64(nItems)
	r.copyTraced()

	// The attribution check: the replayed layers and the pipeline's own
	// residual must account for the batch's busy time.
	sum := stageSum(m)
	m["chimera.stage_sum_ratio"] = sum / batchUS
	if d := sum/batchUS - 1; d > attributionTolerance || d < -attributionTolerance {
		r.problem("attribution: layers + residual = %.1f us/item, ProcessBatch busy = %.1f us/item (off by %.0f%%, tolerance %.0f%%)",
			sum, batchUS, 100*d, 100*attributionTolerance)
	}
	return nil
}

// stageFracs turns BatchProfile.Stages counts (or the same stage labels
// derived from decisions) into decided/declined shares.
func stageFracs(stages map[string]int, n int, m map[string]float64) {
	var declined int
	for s, c := range stages {
		if strings.HasPrefix(s, "declined:") {
			declined += c
		}
	}
	f := func(c int) float64 { return ratio(float64(c), float64(n)) }
	m["chimera.decided_gate_frac"] = f(stages["gatekeeper"])
	m["chimera.decided_rules_frac"] = f(stages["rules"] + stages["combined"])
	m["chimera.decided_ensemble_frac"] = f(stages["ensemble"])
	m["chimera.declined_frac"] = f(declined)
}

// freshCopies returns content-equal fresh copies of items.
func freshCopies(items []*catalog.Item) []*catalog.Item {
	out := make([]*catalog.Item, len(items))
	for i, it := range items {
		out[i] = it.Relabeled(it.TrueType)
	}
	return out
}
