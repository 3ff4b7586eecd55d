package repro

// One benchmark per paper table/figure/number (E1–E11, see DESIGN.md's
// per-experiment index), each reporting the headline quantities via
// b.ReportMetric, plus micro-benchmarks for the hot paths (pattern matching,
// rule-index lookup, executor throughput, mining, the synonym tool).
//
// Experiment benchmarks run the corresponding experiments.E* function at a
// bench-sized scale: large enough for the paper's shape to show, small
// enough that `go test -bench=.` completes on a laptop.

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/chimera"
	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/experiments"
	"repro/internal/learn"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/synonym"
	"repro/internal/tokenize"
)

// reportRow surfaces a named table cell as a benchmark metric when it
// parses as a number.
func reportCell(b *testing.B, rep *experiments.Report, rowPrefix, metric string, col int) {
	b.Helper()
	for _, row := range rep.Rows {
		if len(row) > col && len(row[0]) >= len(rowPrefix) && row[0][:len(rowPrefix)] == rowPrefix {
			if v, err := strconv.ParseFloat(row[col], 64); err == nil {
				b.ReportMetric(v, metric)
			}
			return
		}
	}
}

func reportShape(b *testing.B, rep *experiments.Report) {
	b.Helper()
	if rep.ShapeOK {
		b.ReportMetric(1, "shape_ok")
	} else {
		b.ReportMetric(0, "shape_ok")
		b.Logf("%s shape not reproduced at bench scale:\n%s", rep.ID, rep.Markdown())
	}
}

// BenchmarkE1_ChimeraPrecision regenerates §3.3's precision/recall table:
// learning-only vs rules-only vs combined against the 92% gate.
func BenchmarkE1_ChimeraPrecision(b *testing.B) {
	// E1's shape (learning-only misses the gate) needs the full taxonomy
	// and training sizes; smaller catalogs are too easy for the ensemble.
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E1(experiments.ClassifyOptions{Seed: 42})
	}
	reportCell(b, rep, "learning-only", "prec_learning", 1)
	reportCell(b, rep, "rules+learning", "prec_combined", 1)
	reportCell(b, rep, "rules+learning", "recall_combined", 2)
	reportShape(b, rep)
}

// BenchmarkE2_SynonymTool regenerates Table 1 and the §5.1 evaluation
// (25 patterns, synonyms found, iterations).
func BenchmarkE2_SynonymTool(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E2(experiments.SynonymOptions{Seed: 42, CorpusSize: 8000})
	}
	withSyn := 0
	totalSyn := 0
	for _, row := range rep.Rows {
		if n, err := strconv.Atoi(row[2]); err == nil {
			totalSyn += n
			if n > 0 {
				withSyn++
			}
		}
	}
	b.ReportMetric(float64(withSyn), "patterns_with_synonyms")
	b.ReportMetric(float64(totalSyn)/float64(len(rep.Rows)), "mean_synonyms")
	reportShape(b, rep)
}

// BenchmarkE3_RuleGeneration regenerates the §5.2 numbers: mined candidates,
// high/low selection, precision of each set, decline reduction.
func BenchmarkE3_RuleGeneration(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E3(experiments.RuleGenOptions{
			Seed: 42, NumTypes: 60, TrainSize: 5000, TestSize: 2000, MinSupport: 0.03,
		})
	}
	reportCell(b, rep, "mined candidate rules", "candidates", 1)
	reportCell(b, rep, "selected high-confidence rules", "high_rules", 1)
	reportCell(b, rep, "precision of high-confidence set", "prec_high", 1)
	reportShape(b, rep)
}

// BenchmarkE4_RuleExecution regenerates the §4/§5.3 execution comparison
// (naive vs indexed vs parallel over a 20k-rule-class rulebase).
func BenchmarkE4_RuleExecution(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E4(experiments.ExecOptions{
			Seed: 42, NumTypes: 80, RuleCount: 8000, ItemCount: 800,
		})
	}
	reportShape(b, rep)
}

// BenchmarkE5_OrderIndependence regenerates the §4 property check.
func BenchmarkE5_OrderIndependence(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E5(experiments.ExecOptions{Seed: 42})
	}
	reportShape(b, rep)
}

// BenchmarkE6_RuleEvalMethods regenerates the §4 evaluation-method
// comparison (coverage vs crowd cost, overlap sharing).
func BenchmarkE6_RuleEvalMethods(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E6(experiments.EvalOptions{
			Seed: 42, NumTypes: 60, CorpusSize: 3000, Validation: 500, SamplePerRule: 10,
		})
	}
	reportShape(b, rep)
}

// BenchmarkE7_IE regenerates the §6 IE comparison.
func BenchmarkE7_IE(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E7(experiments.SisterOptions{Seed: 42, NumTypes: 60, TrainSize: 4000, TestSize: 1500})
	}
	reportCell(b, rep, "dictionary rule", "dict_precision", 2)
	reportCell(b, rep, "learned tagger", "learned_precision", 2)
	reportShape(b, rep)
}

// BenchmarkE8_EM regenerates the §6 EM numbers.
func BenchmarkE8_EM(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E8(experiments.SisterOptions{Seed: 42, NumTypes: 60})
	}
	reportCell(b, rep, "precision", "precision", 1)
	reportCell(b, rep, "recall", "recall", 1)
	reportShape(b, rep)
}

// BenchmarkE9_KBCuration regenerates the §6 KB curation-replay numbers.
func BenchmarkE9_KBCuration(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E9(experiments.SisterOptions{Seed: 42})
	}
	reportShape(b, rep)
}

// BenchmarkE10_DriftAndScaleDown regenerates the §2.2/§6 ongoing-operation
// drill (drift → detect → scale down → repair).
func BenchmarkE10_DriftAndScaleDown(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E10(experiments.ClassifyOptions{
			Seed: 42, NumTypes: 100, TrainSize: 6000, TestSize: 2500,
		})
	}
	reportShape(b, rep)
}

// BenchmarkE11_Maintenance regenerates the §4 maintenance analyses over a
// large rulebase.
func BenchmarkE11_Maintenance(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E11(experiments.ExecOptions{Seed: 42, NumTypes: 80, RuleCount: 6000})
	}
	reportCell(b, rep, "subsumed pairs", "subsumed", 1)
	reportCell(b, rep, "significant overlaps", "overlaps", 1)
	reportShape(b, rep)
}

// ---------------------------------------------------------------------------
// Micro-benchmarks for the hot paths
// ---------------------------------------------------------------------------

func benchItems(n int) []*catalog.Item {
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 80})
	return cat.GenerateBatch(catalog.BatchSpec{Size: n, Epoch: 0})
}

func BenchmarkPatternMatch(b *testing.B) {
	p := pattern.MustParse("(motor | engine | auto(motive)? | car | truck) (oil | lubricant)s?")
	tokens := tokenize.Tokenize("castrol gtx high mileage motor oil 5 qt synthetic blend")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.Match(tokens) {
			b.Fatal("must match")
		}
	}
}

func BenchmarkPatternParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := pattern.Parse("(abrasive|sand(er|ing))[ -](wheels?|discs?)"); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRules(b *testing.B) []*core.Rule {
	b.Helper()
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 80})
	rb := core.NewRulebase()
	for _, ty := range cat.Types() {
		for _, h := range ty.HeadTerms {
			if r, err := core.NewWhitelist(h.Text, ty.Name); err == nil {
				_, _ = rb.Add(r, "bench")
			}
		}
		for _, s := range ty.Synonyms {
			if r, err := core.NewWhitelist(s.Text, ty.Name); err == nil {
				_, _ = rb.Add(r, "bench")
			}
		}
	}
	return rb.Active()
}

func BenchmarkRuleIndexBuild(b *testing.B) {
	rules := benchRules(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewRuleIndex(rules)
	}
}

func BenchmarkRuleIndexLookup(b *testing.B) {
	rules := benchRules(b)
	idx := core.NewRuleIndex(rules)
	items := benchItems(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.CandidatesFor(items[i%len(items)])
	}
}

func BenchmarkIndexedExecutorApply(b *testing.B) {
	rules := benchRules(b)
	ex := core.NewIndexedExecutor(rules)
	items := benchItems(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Apply(items[i%len(items)])
	}
}

// BenchmarkInstrumentedExecutorApply measures the telemetry decorator against
// BenchmarkIndexedExecutorApply on the same rulebase and items; the ratio of
// the two ns/op figures is the observability overhead (budget: <5%).
func BenchmarkInstrumentedExecutorApply(b *testing.B) {
	rules := benchRules(b)
	ex := core.NewInstrumentedExecutor(core.NewIndexedExecutor(rules), obs.NewRegistry())
	items := benchItems(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Apply(items[i%len(items)])
	}
}

func BenchmarkSequentialExecutorApply(b *testing.B) {
	rules := benchRules(b)
	ex := core.NewSequentialExecutor(rules)
	items := benchItems(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Apply(items[i%len(items)])
	}
}

func BenchmarkFrequentSequences(b *testing.B) {
	items := benchItems(400)
	titles := make([][]string, len(items))
	for i, it := range items {
		titles[i] = tokenize.NormalizeTokens(it.TitleTokens())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mining.FrequentSequences(titles, 0.05, 2, 4)
	}
}

func BenchmarkSynonymToolBuild(b *testing.B) {
	items := benchItems(4000)
	titles := make([][]string, len(items))
	for i, it := range items {
		titles[i] = it.TitleTokens()
	}
	p := pattern.MustParse(`(area | \syn) rugs?`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synonym.NewTool(p, titles, synonym.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveBayesPredict(b *testing.B) {
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 60})
	train := cat.GenerateBatch(catalog.BatchSpec{Size: 4000, Epoch: 0})
	nb := learn.NewNaiveBayes()
	nb.Train(train)
	items := benchItems(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb.Predict(items[i%len(items)])
	}
}

func BenchmarkKNNPredict(b *testing.B) {
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 60})
	train := cat.GenerateBatch(catalog.BatchSpec{Size: 4000, Epoch: 0})
	knn := learn.NewKNN(5)
	knn.Train(train)
	items := benchItems(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knn.Predict(items[i%len(items)])
	}
}

func BenchmarkDevSessionTry(b *testing.B) {
	dev := core.NewDevSession(benchItems(4000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Try("(motor | engine) oils?", "motor oil"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGuardedRuleMatch(b *testing.B) {
	r, err := core.NewBlacklist("apple", "smart phones")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.WithGuards(core.Guard{Attr: "Price", Op: "<", Value: "100"}); err != nil {
		b.Fatal(err)
	}
	it := &catalog.Item{ID: "x", Attrs: map[string]string{"Title": "apple branded case deluxe", "Price": "12.99"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Matches(it) {
			b.Fatal("must match")
		}
	}
}

func BenchmarkEMMatchCorpus(b *testing.B) {
	items := benchItems(1500)
	rs := &em.RuleSet{Rules: []*em.Rule{
		em.NewRule("title", em.QGramJaccard("Title", 3, 0.8)),
		em.NewRule("brand-title", em.AttrEquals("Brand Name"), em.TokenJaccard("Title", 0.6)),
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em.MatchCorpus(rs, items, 2, 4)
	}
}

// ---------------------------------------------------------------------------
// Serving-under-mutation benchmarks (locked vs snapshot)
// ---------------------------------------------------------------------------

// benchServeSetup builds the serving rulebase (same population as benchRules)
// plus a shared item pool with pre-warmed token caches (items are shared
// across the parallel classifier goroutines, and the lazy TitleTokens cache
// must be populated before they race over it).
func benchServeSetup(b *testing.B) (*core.Rulebase, string, []*catalog.Item) {
	b.Helper()
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 80})
	rb := core.NewRulebase()
	for _, ty := range cat.Types() {
		for _, h := range ty.HeadTerms {
			if r, err := core.NewWhitelist(h.Text, ty.Name); err == nil {
				_, _ = rb.Add(r, "bench")
			}
		}
		for _, s := range ty.Synonyms {
			if r, err := core.NewWhitelist(s.Text, ty.Name); err == nil {
				_, _ = rb.Add(r, "bench")
			}
		}
	}
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 256, Epoch: 0})
	for _, it := range items {
		it.TitleTokens()
	}
	return rb, rb.Active()[0].ID, items
}

// lockedServe is the pre-snapshot serving design this PR replaces: one
// executor guarded by a RWMutex, classification under the read lock, and a
// rulebase mutation forcing the next reader to rebuild inline under the
// write lock — which stalls every concurrent reader for the whole rebuild
// and convoys them on the lock even when nothing changed.
type lockedServe struct {
	rb   *core.Rulebase
	reg  *obs.Registry
	mu   sync.RWMutex
	ver  uint64
	exec core.Executor
}

func newLockedServe(rb *core.Rulebase) *lockedServe {
	ls := &lockedServe{rb: rb, reg: obs.NewRegistry()}
	ls.refresh()
	return ls
}

func (ls *lockedServe) refresh() {
	ver, active := ls.rb.ActiveView()
	// Same telemetry decoration as the snapshot path, so the comparison
	// isolates the serving architecture, not the instrumentation.
	ls.exec = core.NewInstrumentedExecutor(core.NewIndexedExecutor(active), ls.reg)
	ls.ver = ver
}

func (ls *lockedServe) Apply(it *catalog.Item) *core.Verdict {
	for {
		ls.mu.RLock()
		if ls.ver == ls.rb.Version() {
			v := ls.exec.Apply(it)
			ls.mu.RUnlock()
			return v
		}
		ls.mu.RUnlock()
		ls.mu.Lock()
		if ls.ver != ls.rb.Version() {
			ls.refresh()
		}
		ls.mu.Unlock()
	}
}

// serveMutationEvery is the serving benchmarks' mutation cadence: one rule
// mutation per this many items served — the pipeline's own maintenance
// rhythm (EvaluateAndImprove writes tens of patch rules, confidence updates
// and scale-downs per ~2000-item batch). The locked design must rebuild
// inline once per observed version change (~150–300µs for this rulebase),
// so under this load a large fraction of its serving time goes to rebuilds;
// the snapshot engine's debounced background loop collapses the same
// mutation stream into far fewer rebuilds, and its readers never wait for
// one. (On a multi-core host the gap widens further: an inline rebuild
// under the write lock stalls every reader; the snapshot path stalls none.)
const serveMutationEvery = 50

// runServeBench drives parallel classification through apply, injecting one
// rule mutation per serveMutationEvery items served.
func runServeBench(b *testing.B, setup func(*core.Rulebase) func(*catalog.Item) *core.Verdict) {
	rb, toggleID, items := benchServeSetup(b)
	apply := setup(rb)

	var served atomic.Int64
	var toggle atomic.Bool
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			apply(items[i%len(items)])
			i++
			if served.Add(1)%serveMutationEvery == 0 {
				if toggle.CompareAndSwap(false, true) {
					_ = rb.Disable(toggleID, "bench", "mutation load")
				} else {
					toggle.Store(false)
					_ = rb.Enable(toggleID, "bench", "mutation load")
				}
			}
		}
	})
}

// BenchmarkServeLockedUnderMutation is the baseline: classification under the
// rulebase-guarding RWMutex, rebuilds inline on the serving path.
func BenchmarkServeLockedUnderMutation(b *testing.B) {
	runServeBench(b, func(rb *core.Rulebase) func(*catalog.Item) *core.Verdict {
		return newLockedServe(rb).Apply
	})
}

// BenchmarkServeSnapshotUnderMutation is the serving layer's path: one atomic
// load per read, rebuild-and-swap on the engine's own goroutine.
// EXPERIMENTS.md records the measured speedup over the locked baseline
// (acceptance floor: 2×).
func BenchmarkServeSnapshotUnderMutation(b *testing.B) {
	runServeBench(b, func(rb *core.Rulebase) func(*catalog.Item) *core.Verdict {
		eng := serve.NewEngine(rb, serve.EngineOptions{Obs: obs.NewRegistry()})
		eng.Start()
		b.Cleanup(eng.Close)
		return func(it *catalog.Item) *core.Verdict {
			return eng.Current().Rules().Apply(it)
		}
	})
}

// BenchmarkServeAcquireUnderMutation measures the old Pipeline.Classify hot
// path on a started engine: Acquire reads the rulebase version under its
// mutex on every call (and rebuilds inline when a mutation landed between
// the async loop's swaps), so readers convoy with the mutation stream.
// Pipeline.Classify/RuleHealth now use Current() when the engine is started;
// EXPERIMENTS.md records the measured gap.
func BenchmarkServeAcquireUnderMutation(b *testing.B) {
	runServeBench(b, func(rb *core.Rulebase) func(*catalog.Item) *core.Verdict {
		eng := serve.NewEngine(rb, serve.EngineOptions{Obs: obs.NewRegistry()})
		eng.Start()
		b.Cleanup(eng.Close)
		return func(it *catalog.Item) *core.Verdict {
			return eng.Acquire().Rules().Apply(it)
		}
	})
}

// ---------------------------------------------------------------------------
// Batch-classification benchmarks (per-item index probes vs batch-inverted
// join) — the standard 5k-item/1k-rule batch; acceptance floor: the batch
// matcher at ≥1.5× the per-item indexed throughput (EXPERIMENTS.md records
// the measured ratio).
// ---------------------------------------------------------------------------

// benchBatchWorkers is the worker count both batch-classification paths use,
// so the comparison isolates the matching strategy, not the parallelism.
const benchBatchWorkers = 4

// benchBatchSetup builds the standard load: a ~1k-rule whitelist population
// over a 250-type taxonomy and a 5k-item batch with pre-warmed token caches.
func benchBatchSetup(b *testing.B) ([]*core.Rule, []*catalog.Item) {
	b.Helper()
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 250})
	rb := core.NewRulebase()
	for _, ty := range cat.Types() {
		for _, h := range ty.HeadTerms {
			if r, err := core.NewWhitelist(h.Text, ty.Name); err == nil {
				_, _ = rb.Add(r, "bench")
			}
		}
		for _, s := range ty.Synonyms {
			if r, err := core.NewWhitelist(s.Text, ty.Name); err == nil {
				_, _ = rb.Add(r, "bench")
			}
		}
	}
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 5000, Epoch: 0})
	for _, it := range items {
		it.TitleTokens()
	}
	return rb.Active(), items
}

// BenchmarkBatchClassifyPerItemIndexed is the reference path: per-item
// CandidatesFor probes through the rule index, sharded across workers.
func BenchmarkBatchClassifyPerItemIndexed(b *testing.B) {
	rules, items := benchBatchSetup(b)
	ex := core.NewIndexedExecutor(rules)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ExecuteBatchItemwise(ex, items, benchBatchWorkers)
	}
	b.ReportMetric(float64(len(rules)), "rules")
	b.ReportMetric(float64(b.N)*float64(len(items))/b.Elapsed().Seconds(), "items/sec")
}

// BenchmarkBatchClassifyBatchInverted is the batch-inverted matcher on the
// same rulebase, items and worker count.
func BenchmarkBatchClassifyBatchInverted(b *testing.B) {
	rules, items := benchBatchSetup(b)
	bm := core.NewBatchMatcher(core.NewIndexedExecutor(rules).Index())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.MatchBatch(items, benchBatchWorkers)
	}
	b.ReportMetric(float64(len(rules)), "rules")
	b.ReportMetric(float64(b.N)*float64(len(items))/b.Elapsed().Seconds(), "items/sec")
}

// ---------------------------------------------------------------------------
// Decision-provenance overhead: the full pipeline over the standard 5k-item
// batch with audit capture disabled, at the default 1-in-8 sampling, and at
// full capture. The acceptance budget is ≤5% overhead at default sampling
// (BENCH_PR6.json records the measured ratio).
// ---------------------------------------------------------------------------

// benchAuditPipeline is a trained pipeline with head-term whitelist rules
// over the 250-type taxonomy, audit configured as given. The training set is
// kept small: the KNN ensemble member's per-item cost scales with it, and a
// heavyweight classifier would only mask the audit overhead being measured.
func benchAuditPipeline(b *testing.B, cfg obs.AuditConfig) (*chimera.Pipeline, []*catalog.Item) {
	b.Helper()
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 250})
	p := chimera.New(chimera.Config{Seed: 7, Audit: obs.NewAuditLog(cfg)})
	p.Train(cat.LabeledData(500))
	for _, ty := range cat.Types() {
		for _, h := range ty.HeadTerms {
			if r, err := core.NewWhitelist(h.Text, ty.Name); err == nil {
				_, _ = p.Rules.Add(r, "bench")
			}
		}
	}
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 5000, Epoch: 0})
	for _, it := range items {
		it.TitleTokens()
	}
	return p, items
}

func benchProcessBatchAudit(b *testing.B, cfg obs.AuditConfig) {
	p, items := benchAuditPipeline(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ProcessBatch(items)
	}
	b.ReportMetric(float64(b.N)*float64(len(items))/b.Elapsed().Seconds(), "items/sec")
}

// BenchmarkBatchClassifyAuditOff is the baseline: provenance capture
// disabled entirely (negative capacity).
func BenchmarkBatchClassifyAuditOff(b *testing.B) {
	benchProcessBatchAudit(b, obs.AuditConfig{Capacity: -1})
}

// BenchmarkBatchClassifyAuditDefault is the shipped configuration: 1-in-8
// sampling with always-capture bias for declines and degraded decisions.
func BenchmarkBatchClassifyAuditDefault(b *testing.B) {
	benchProcessBatchAudit(b, obs.AuditConfig{})
}

// BenchmarkBatchClassifyAuditFull captures every decision — the upper bound
// an operator pays for -audit-sample 1.
func BenchmarkBatchClassifyAuditFull(b *testing.B) {
	benchProcessBatchAudit(b, obs.AuditConfig{SampleEvery: 1})
}

func BenchmarkCatalogGenerate(b *testing.B) {
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 120})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat.GenerateBatch(catalog.BatchSpec{Size: 100, Epoch: 1})
	}
}

// --- Persistence overhead ladder (internal/persist) --------------------------
//
// One op = one rulebase mutation (a confidence update through the versioned
// audit path). The three rungs price durability: no store at all, a
// CRC-framed WAL append per mutation, and the same append with an fsync
// barrier — the bench.sh emitter turns the ns/op ratios into
// persist_wal_overhead_ratio / persist_wal_fsync_overhead_ratio.

// benchPersistRulebase seeds a rulebase with a pool of rules to mutate.
func benchPersistRulebase(b *testing.B) (*core.Rulebase, []string) {
	b.Helper()
	rb := core.NewRulebase()
	ids := make([]string, 0, 16)
	for i := 0; i < 16; i++ {
		r, err := core.NewWhitelist("widget "+strconv.Itoa(i), "gadget")
		if err != nil {
			b.Fatal(err)
		}
		id, err := rb.Add(r, "bench")
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	return rb, ids
}

func benchPersistMutations(b *testing.B, rb *core.Rulebase, ids []string) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rb.UpdateConfidence(ids[i%len(ids)], 0.5+float64(i%50)/100, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPersistOff is the baseline: mutations with no store attached (the
// change feed has no subscribers, so nothing is even cloned).
func BenchmarkPersistOff(b *testing.B) {
	rb, ids := benchPersistRulebase(b)
	benchPersistMutations(b, rb, ids)
}

func benchPersistStore(b *testing.B, fsync bool) {
	b.Helper()
	rb, ids := benchPersistRulebase(b)
	// Auto-snapshots off: the rung prices the append path, not compaction.
	st, err := persist.Open(persist.Options{Dir: b.TempDir(), Fsync: fsync, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Attach(rb); err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	benchPersistMutations(b, rb, ids)
	b.StopTimer()
	b.ReportMetric(float64(st.WALSize())/float64(b.N), "wal_bytes/op")
}

// BenchmarkPersistWAL appends every mutation to the write-ahead log without
// fsync (durability up to the OS page cache).
func BenchmarkPersistWAL(b *testing.B) { benchPersistStore(b, false) }

// BenchmarkPersistWALFsync adds the fsync barrier per append — the
// power-fail-durable configuration.
func BenchmarkPersistWALFsync(b *testing.B) { benchPersistStore(b, true) }
