package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
)

const (
	// visibleTimeout is how long a mutation may take to reach the serving
	// snapshot before it counts as failed.
	visibleTimeout = 2 * time.Second
	// visiblePoll is the wait between looks at the published snapshot.
	visiblePoll = 100 * time.Microsecond
	// bulkMin and bulkMax bound the rule count of a type the analyst scales
	// down in bulk.
	bulkMin, bulkMax = 8, 32
	// buildEvery: when traced, every buildEvery-th mutation also times an
	// index build and a snapshot build outside the engine.
	buildEvery = 10
)

// runMaintain runs one analyst in a closed loop of seeded mutations against
// a rulebase with an fsync'd persist store attached and the engine started,
// beside a light read load: one reader in a closed loop, so reads hold one
// worker whatever the ensemble costs. After each mutation the analyst waits
// until the serving snapshot has it. The run ends with a cold restore
// from disk into a fresh rulebase.
func runMaintain(e *env) error {
	base := filepath.Join(e.stateDir, "persist")
	sys, setupS, err := setUpRepeated(e.in, e.workers, setupOpts{server: true, persistDir: base})
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			sys.close()
		}
	}()
	r := e.rep
	r.e2e["setup_s"] = setupS
	r.e2e["heap_mb"] = heapMB()
	e.settings["rules"] = sys.p.Rules.Len()

	src := &requestSource{in: e.in}
	t := newLoadTarget(sys)
	an := newAnalyst(e.in, sys.p.Rules)
	reg0, audit0 := sys.reg.Snapshot(), sys.p.Audit.Captured()

	type readResult struct {
		outs []*outcome
		wall time.Duration
		sent int
	}
	readsDone := make(chan readResult, 1)
	go func() {
		outs, wall, sent := closedLoop(t, 1, src, e.seconds)
		readsDone <- readResult{outs, wall, sent}
	}()

	var visible []float64
	var builds buildCosts
	scratch := obs.NewRegistry()
	ops := 0
	start := time.Now()
	for time.Since(start) < e.seconds {
		op, apply := an.next()
		t0 := time.Now()
		err := apply()
		commit := time.Since(t0)
		target := sys.p.Rules.Version()
		for sys.p.Snapshots().Current().Version() < target && time.Since(t0) < visibleTimeout {
			time.Sleep(visiblePoll)
		}
		d := time.Since(t0)
		ops++
		switch {
		case err != nil:
			r.failed++
			r.problem("mutation %s: %v", op, err)
		case sys.p.Snapshots().Current().Version() < target:
			r.failed++
			r.problem("mutation %s not visible after %v", op, visibleTimeout)
		}
		visible = append(visible, ms(d))
		if e.tr != nil {
			root := e.tr.record("analyst."+op, int64(ops), -1, t0, d)
			e.tr.record("core.Rulebase."+op, int64(ops), root, t0, commit)
			e.tr.record("visibility-wait", int64(ops), root, t0.Add(commit), d-commit)
			if ops%buildEvery == 0 {
				builds.measure(e, sys.p.Rules, scratch, int64(ops))
			}
		}
	}
	rr := <-readsDone
	readOuts := rr.outs
	reg1, audit1 := sys.reg.Snapshot(), sys.p.Audit.Captured()
	if err := checkTickets(rr.sent, readOuts, readBooks(reg1).minus(readBooks(reg0)), e.in.sz.ReqItems); err != nil {
		r.problem("reader accounting: %v", err)
	}
	closed = true
	if err := sys.close(); err != nil {
		return fmt.Errorf("closing the persist store: %w", err)
	}

	// Cold restore from what the store made durable.
	sp := e.tr.begin("persist.Open", 0, -1)
	t0 := time.Now()
	st, err := persist.Open(persist.Options{Dir: sys.dir, Fsync: true, Obs: scratch})
	openD := time.Since(t0)
	e.tr.end(sp)
	if err != nil {
		return fmt.Errorf("reopening the persist store: %w", err)
	}
	restored := core.NewRulebase()
	sp = e.tr.begin("persist.Store.Restore", 0, -1)
	t0 = time.Now()
	stats, err := st.Restore(restored)
	restoreD := time.Since(t0)
	e.tr.end(sp)
	st.Close()
	r.attempted = int64(ops + len(readOuts) + 1)
	if err == nil {
		err = checkRestore(sys.p.Rules, restored)
	}
	if err != nil {
		r.failed++
		r.problem("restore: %v", err)
	}
	for _, o := range readOuts {
		if o.err != nil {
			r.failed++
		}
	}

	var q quality
	q.addOutcomes(readOuts)
	r.e2e["items_per_s"] = float64(served(readOuts)) / rr.wall.Seconds()
	r.e2e["precision"] = q.precision()
	r.e2e["recall"] = q.recall()
	r.e2e["p50_ms"] = median(visible)
	r.e2e["p75_ms"] = quantile(visible, 0.75)
	e.settings["mutations"] = ops
	e.settings["reads"] = len(readOuts)
	e.settings["restore_ms"] = ms(openD + restoreD)

	if e.tr == nil {
		return nil
	}
	m := r.layers
	m["serve.repeat_frac"] = e.in.repeatFrac(readOuts)
	m["obs.audit_captured_per_item"] = ratio(float64(audit1-audit0), float64(served(readOuts)))
	serveLayer(e, sys, reg0, reg1, readOuts, readOuts, ops, m)
	builds.fill(m)
	delta := func(name string) float64 { return counter(reg1, name) - counter(reg0, name) }
	m["persist.fsync_ms_p50"] = 1e3 * histDeltaQuantile(reg0, reg1, persist.MetricFsyncSeconds, 0.5)
	m["persist.wal_bytes_per_mutation"] = ratio(delta(persist.MetricWALBytes), float64(ops))
	m["persist.compactions"] = delta(persist.MetricSnapshots)
	m["persist.compaction_ms_p50"] = 1e3 * histDeltaQuantile(reg0, reg1, persist.MetricSnapshotSeconds, 0.5)
	m["persist.open_ms"] = ms(openD)
	m["persist.restore_ms"] = ms(restoreD)
	m["persist.replayed"] = float64(stats.Replayed)
	r.copyTraced()
	return nil
}

// histDeltaQuantile estimates the q-quantile of the observations a histogram
// series gained between two registry snapshots, interpolating linearly
// within the bucket (0 when it gained none).
func histDeltaQuantile(before, after *obs.Snapshot, name string, q float64) float64 {
	h1 := histogram(after, name)
	if h1 == nil {
		return 0
	}
	counts := append([]int64(nil), h1.Counts...)
	if h0 := histogram(before, name); h0 != nil {
		for i := range counts {
			counts[i] -= h0.Counts[i]
		}
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h1.Bounds[i-1]
			}
			if i >= len(h1.Bounds) {
				return lo // overflow bucket: its lower bound is all that is known
			}
			return lo + (h1.Bounds[i]-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return h1.Bounds[len(h1.Bounds)-1]
}

// analyst draws a seeded mix of rule maintenance actions and keeps its own
// book of each rule's status, so every action it takes changes the
// rulebase.
type analyst struct {
	rb      *core.Rulebase
	rng     *rand.Rand
	adds    []ruleSpec
	ids     []string
	status  map[string]core.Status
	added   []string // rules this analyst added (the ones it may retire)
	types   []string
	bulk    []string // rules the last bulk scale-down disabled
	nextAdd int
}

func newAnalyst(in *inputs, rb *core.Rulebase) *analyst {
	a := &analyst{
		rb:     rb,
		rng:    rand.New(rand.NewPCG(in.seed, 3)),
		adds:   append(append([]ruleSpec(nil), in.addPool...), in.mined...),
		status: map[string]core.Status{},
	}
	perType := map[string]int{}
	for _, r := range rb.Active() {
		a.ids = append(a.ids, r.ID)
		a.status[r.ID] = core.Active
		perType[r.TargetType]++
	}
	// Bulk scale-downs hit mid-sized types only: a head type has hundreds of
	// rules, and one such action would dominate a run's write load.
	for _, ty := range in.cat.TypeNames() {
		if n := perType[ty]; n >= bulkMin && n <= bulkMax {
			a.types = append(a.types, ty)
		}
	}
	a.rng.Shuffle(len(a.adds), func(i, j int) { a.adds[i], a.adds[j] = a.adds[j], a.adds[i] })
	return a
}

// pick returns a random tracked rule in status st from pool ("" if none
// turned up in a few draws).
func (a *analyst) pick(pool []string, st core.Status) string {
	for try := 0; try < 32 && len(pool) > 0; try++ {
		if id := pool[a.rng.IntN(len(pool))]; a.status[id] == st {
			return id
		}
	}
	return ""
}

// next draws the next action: its name and the call that performs it.
func (a *analyst) next() (string, func() error) {
	const actor = "bench-analyst"
	x := a.rng.IntN(100)
	switch {
	case x < 20:
		if id := a.pick(a.ids, core.Active); id != "" {
			return "Disable", func() error {
				a.status[id] = core.Disabled
				return a.rb.Disable(id, actor, "misfiring")
			}
		}
	case x < 40:
		if id := a.pick(a.ids, core.Disabled); id != "" {
			return "Enable", func() error {
				a.status[id] = core.Active
				return a.rb.Enable(id, actor, "fixed")
			}
		}
	case x < 50:
		if a.bulk != nil {
			ids := a.bulk
			a.bulk = nil
			return "EnableAll", func() error {
				for _, id := range ids {
					if a.status[id] == core.Disabled {
						a.status[id] = core.Active
					}
				}
				a.rb.EnableAll(ids, actor, "restore scale-down")
				return nil
			}
		}
		if len(a.types) == 0 {
			break
		}
		ty := a.types[a.rng.IntN(len(a.types))]
		return "DisableWhere", func() error {
			a.bulk = a.rb.DisableWhere(func(r *core.Rule) bool { return r.TargetType == ty }, actor, "scale down "+ty)
			for _, id := range a.bulk {
				a.status[id] = core.Disabled
			}
			return nil
		}
	case x < 65:
		if id := a.pick(a.ids, core.Active); id != "" {
			conf := 0.5 + 0.5*a.rng.Float64()
			return "UpdateConfidence", func() error { return a.rb.UpdateConfidence(id, conf, actor) }
		}
	case x < 75:
		if id := a.pick(a.added, core.Active); id != "" {
			return "Retire", func() error {
				a.status[id] = core.Retired
				return a.rb.Retire(id, actor, "superseded")
			}
		}
	}
	return a.add()
}

// add writes the next whitelist from the pool: a synonym the catalog's later
// vocabulary introduced, or a mined rule re-added by hand.
func (a *analyst) add() (string, func() error) {
	for range a.adds {
		s := a.adds[a.nextAdd%len(a.adds)]
		a.nextAdd++
		r, err := core.NewWhitelist(s.Source, s.Target)
		if err != nil {
			continue // a term that does not parse as a pattern; analysts skip it
		}
		r.Confidence = s.Confidence
		return "Add", func() error {
			id, err := a.rb.Add(r, "bench-analyst")
			if err == nil {
				a.ids = append(a.ids, id)
				a.added = append(a.added, id)
				a.status[id] = core.Active
			}
			return err
		}
	}
	return "Add", func() error { return fmt.Errorf("no whitelist in the pool parses") }
}
