package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Replay sample sizes: how many items per replay the ensemble, the
// allocation count and the per-item reference path are replayed on.
const (
	ensembleSample = 600
	allocSample    = 200
	residualSample = 200
)

// memberMetric maps an ensemble member's Name to its layer metric.
var memberMetric = map[string]string{
	"naive-bayes": "learn.nb_us_per_item",
	"knn":         "learn.knn_us_per_item",
	"perceptron":  "learn.perceptron_us_per_item",
}

// layerAcc accumulates replayed layer costs. Busy times are CPU-seconds: a
// call that runs on w workers counts wall time × w.
type layerAcc struct {
	items    int // items the replays stand for
	pending  int // of those, items the gate left to the classifier stages
	gated    int
	tokenize time.Duration
	gate     time.Duration
	rules    time.Duration

	ensItems int // pending items the ensemble was replayed on
	ensemble time.Duration
	members  map[string]time.Duration

	allocItems    int
	allocs, bytes uint64

	residualItems int
	residual      time.Duration // per-item path minus its replayed layers
}

// replayLayers replays the layers' public calls on fresh copies of items,
// against the pipeline's current snapshot, under spans tagged req.
func replayLayers(e *env, sys *system, items []*catalog.Item, req int64, acc *layerAcc) {
	tr, w := e.tr, e.workers
	clones := freshCopies(items)
	acc.items += len(items)

	sp := tr.begin("catalog.Item.TitleTokens", req, -1)
	for _, it := range clones {
		it.TitleTokens()
	}
	acc.tokenize += tr.end(sp)

	snap := sys.p.Snapshots().Current()
	sp = tr.begin("serve.Snapshot.GateApplyBatch", req, -1)
	gv := snap.GateApplyBatch(clones, w)
	acc.gate += tr.end(sp) * time.Duration(w)
	var pending []*catalog.Item
	for i, v := range gv {
		if len(v.FinalTypes()) == 0 {
			pending = append(pending, clones[i])
		}
	}
	acc.pending += len(pending)
	acc.gated += len(clones) - len(pending)
	if len(pending) > 0 {
		sp = tr.begin("serve.Snapshot.ApplyBatch", req, -1)
		snap.ApplyBatch(pending, w)
		acc.rules += tr.end(sp) * time.Duration(w)
	}
	ens := pending[:min(len(pending), ensembleSample)]
	replayEnsemble(e, sys, ens, req, acc)
	acc.ensItems += len(ens)

	// Allocations of one Ensemble.Predict, single-threaded so nothing else
	// allocates between the two readings.
	allocs := pending[:min(len(pending), allocSample)]
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, it := range allocs {
		sys.p.Ensemble.Predict(it)
	}
	runtime.ReadMemStats(&m1)
	acc.allocItems += len(allocs)
	acc.allocs += m1.Mallocs - m0.Mallocs
	acc.bytes += m1.TotalAlloc - m0.TotalAlloc

	replayResidual(e, sys, snap, items[:min(len(items), residualSample)], req, acc)
}

// replayEnsemble times Ensemble.Predict and then each member's Predict on
// every item, split across the workers the pipeline uses.
func replayEnsemble(e *env, sys *system, items []*catalog.Item, req int64, acc *layerAcc) {
	if acc.members == nil {
		acc.members = map[string]time.Duration{}
	}
	members := sys.p.Ensemble.Members()
	var mu sync.Mutex
	var wg sync.WaitGroup
	chunk := (len(items) + e.workers - 1) / e.workers
	for lo := 0; lo < len(items); lo += chunk {
		part := items[lo:min(lo+chunk, len(items))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ensD time.Duration
			memD := make([]time.Duration, len(members))
			for _, it := range part {
				sp := e.tr.begin("learn.Ensemble.Predict", req, -1)
				sys.p.Ensemble.Predict(it)
				ensD += e.tr.end(sp)
				for i, m := range members {
					sp := e.tr.begin("learn."+m.Name()+".Predict", req, -1)
					m.Predict(it)
					memD[i] += e.tr.end(sp)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			acc.ensemble += ensD
			for i, m := range members {
				acc.members[m.Name()] += memD[i]
			}
		}()
	}
	wg.Wait()
}

// replayResidual measures the pipeline's own self time (vote, filter, audit,
// decision assembly) on the per-item reference path: Pipeline.ClassifyCtx on
// a pre-tokenized copy, minus the gate, rule and ensemble calls it makes,
// replayed on another pre-tokenized copy. The two alternate which goes
// first, so whichever runs on warmer caches does not bias the difference.
func replayResidual(e *env, sys *system, snap *serve.Snapshot, items []*catalog.Item, req int64, acc *layerAcc) {
	ctx := context.Background()
	for i, it := range items {
		a, b := it.Relabeled(it.TrueType), it.Relabeled(it.TrueType)
		a.TitleTokens()
		b.TitleTokens()
		whole := func() time.Duration {
			sp := e.tr.begin("chimera.Pipeline.ClassifyCtx", req, -1)
			sys.p.ClassifyCtx(ctx, a)
			return e.tr.end(sp)
		}
		parts := func() time.Duration {
			sp := e.tr.begin("reference:core.Executor.Apply(gate)", req, -1)
			gv := snap.Gate().Apply(b)
			d := e.tr.end(sp)
			if len(gv.FinalTypes()) == 0 {
				sp = e.tr.begin("reference:core.Executor.Apply(rules)", req, -1)
				snap.Apply(b)
				d += e.tr.end(sp)
				sp = e.tr.begin("reference:learn.Ensemble.Predict", req, -1)
				sys.p.Ensemble.Predict(b)
				d += e.tr.end(sp)
			}
			return d
		}
		if i%2 == 0 {
			w := whole()
			acc.residual += w - parts()
		} else {
			p := parts()
			acc.residual += whole() - p
		}
		acc.residualItems++
	}
}

// fill writes the replayed layer metrics into m, per item of the work the
// replays stand for.
func (acc *layerAcc) fill(m map[string]float64) {
	us := func(d time.Duration, n int) float64 { return ratio(float64(d)/1e3, float64(n)) }
	pendShare := ratio(float64(acc.pending), float64(acc.items))
	m["catalog.tokenize_us_per_item"] = us(acc.tokenize, acc.items)
	m["core.gate_us_per_item"] = us(acc.gate, acc.items)
	m["core.rules_us_per_item"] = us(acc.rules, acc.items)
	m["core.gate_decided_frac"] = ratio(float64(acc.gated), float64(acc.items))
	m["learn.ensemble_us_per_item"] = us(acc.ensemble, acc.ensItems) * pendShare
	for name, metric := range memberMetric {
		m[metric] = us(acc.members[name], acc.ensItems) * pendShare
	}
	m["learn.ensemble_allocs_per_item"] = ratio(float64(acc.allocs), float64(acc.allocItems))
	m["learn.ensemble_bytes_per_item"] = ratio(float64(acc.bytes), float64(acc.allocItems))
	m["chimera.residual_us_per_item"] = us(acc.residual, acc.residualItems)
}

// stageSum is the replayed layers plus the residual, per item.
func stageSum(m map[string]float64) float64 {
	return m["catalog.tokenize_us_per_item"] + m["core.gate_us_per_item"] + m["core.rules_us_per_item"] +
		m["learn.ensemble_us_per_item"] + m["chimera.residual_us_per_item"]
}

// ruleCounters fills the rule stage's index selectivity from the registry's
// core_exec_* series for the classifier executor, as deltas between two
// snapshots of the registry.
func ruleCounters(before, after *obs.Snapshot, m map[string]float64) {
	d := func(name string) float64 {
		return counter(after, name, "exec", "rules") - counter(before, name, "exec", "rules")
	}
	cands := d(core.MetricExecCandidates)
	m["core.rules_candidates_per_item"] = ratio(cands, d(core.MetricExecApplies))
	m["core.candidate_match_frac"] = ratio(d(core.MetricExecMatched), cands)
}

// buildCosts accumulates, in ms, the two builds a mutation pays for, timed
// outside the engine: the classifier index over the active rules, and a
// whole serve snapshot.
type buildCosts struct{ index, snapshot []float64 }

func (b *buildCosts) measure(e *env, rb *core.Rulebase, scratch *obs.Registry, req int64) {
	sp := e.tr.begin("core.NewIndexedExecutor", req, -1)
	core.NewIndexedExecutor(rb.Active())
	b.index = append(b.index, ms(e.tr.end(sp)))
	sp = e.tr.begin("serve.BuildSnapshot", req, -1)
	serve.BuildSnapshot(rb, scratch)
	b.snapshot = append(b.snapshot, ms(e.tr.end(sp)))
}

func (b *buildCosts) fill(m map[string]float64) {
	m["core.index_build_ms"] = median(b.index)
	m["serve.snapshot_build_ms_p50"] = median(b.snapshot)
	m["serve.snapshot_build_ms_p99"] = quantile(b.snapshot, 0.99)
}
