package main

import (
	"encoding/json"
	"errors"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/chimera"
	"repro/internal/core"
	"repro/internal/serve"
)

// testSizes keeps input generation (mining above all) cheap.
var testSizes = sizes{NumTypes: 40, ZipfS: 1.3, TrainSize: 300, BatchSize: 120, HotPool: 30, ReqItems: 8}

func requests(in *inputs, n int) [][]*catalog.Item {
	reqs := make([][]*catalog.Item, n)
	for i := range reqs {
		reqs[i] = in.request()
	}
	return reqs
}

func mustInputs(t *testing.T, seed uint64) *inputs {
	t.Helper()
	in, err := newInputs(seed, testSizes, "")
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// fingerprint renders everything a run feeds the program, in order.
func fingerprint(in *inputs) string {
	var b strings.Builder
	item := func(it *catalog.Item) {
		b.WriteString(it.ID + "|" + it.TrueType + "|" + it.Vendor + "|")
		keys := make([]string, 0, len(it.Attrs))
		for k := range it.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			b.WriteString(k + "=" + it.Attrs[k] + ";")
		}
		b.WriteString("\n")
	}
	for _, it := range in.labeled {
		item(it)
	}
	for _, r := range in.mined {
		b.WriteString(r.Source + "->" + r.Target + "\n")
	}
	for _, it := range in.batch() {
		item(it)
	}
	for _, req := range requests(in, 20) {
		for _, it := range req {
			item(it)
		}
	}
	return b.String()
}

func TestInputsDependOnSeedOnly(t *testing.T) {
	a, b, c := fingerprint(mustInputs(t, 7)), fingerprint(mustInputs(t, 7)), fingerprint(mustInputs(t, 8))
	if a != b {
		t.Fatal("the same seed generated different inputs")
	}
	if a == c {
		t.Fatal("different seeds generated identical inputs")
	}
}

func TestRepeatsAreFreshCopies(t *testing.T) {
	in := mustInputs(t, 3)
	hot := map[string]*catalog.Item{}
	for _, it := range in.hot {
		hot[it.ID] = it
	}
	seen := map[*catalog.Item]bool{}
	repeats := 0
	for _, req := range requests(in, 200) {
		for _, it := range req {
			if seen[it] {
				t.Fatalf("item %s handed out twice as the same object", it.ID)
			}
			seen[it] = true
			src, ok := hot[it.ID]
			if !ok {
				continue
			}
			repeats++
			if src == it {
				t.Fatalf("repeat of %s is the hot item itself, not a copy", it.ID)
			}
			if !maps.Equal(src.Attrs, it.Attrs) || src.TrueType != it.TrueType || src.Vendor != it.Vendor || src.Epoch != it.Epoch {
				t.Fatalf("repeat of %s differs in content", it.ID)
			}
		}
	}
	if share := float64(repeats) / float64(len(seen)); share < 0.7 || share > 0.9 {
		t.Fatalf("repeat share %.2f, want about %.1f", share, repeatShare)
	}
}

func TestCheckDecisionsCatchesAWrongDecision(t *testing.T) {
	in := mustInputs(t, 5)
	items := in.batch()
	ref := func(it *catalog.Item) chimera.Decision {
		return chimera.Decision{Item: it, Type: it.TrueType, Reason: "rules", Evidence: []string{"R1"}}
	}
	decs := make([]chimera.Decision, len(items))
	for i, it := range items {
		decs[i] = ref(it)
	}
	sample := []int{0, 3, 7}
	if bad, _ := checkDecisions(ref, items, decs, sample); bad != 0 {
		t.Fatalf("%d mismatches on identical decisions", bad)
	}
	for name, corrupt := range map[string]func(*chimera.Decision){
		"type":     func(d *chimera.Decision) { d.Type = "other" },
		"declined": func(d *chimera.Decision) { d.Declined = true },
		"reason":   func(d *chimera.Decision) { d.Reason = "ensemble" },
		"evidence": func(d *chimera.Decision) { d.Evidence = []string{"R2"} },
	} {
		wrong := slices.Clone(decs)
		corrupt(&wrong[3])
		if bad, first := checkDecisions(ref, items, wrong, sample); bad != 1 || first == "" {
			t.Errorf("wrong %s: %d mismatches reported, want 1", name, bad)
		}
	}
}

func servedOutcome() *outcome {
	items := make([]*catalog.Item, 8)
	return &outcome{items: items, decs: make([]chimera.Decision, 8), waits: 1}
}

func TestCheckTicketsCatchesDroppedAndDoubleResolvedTickets(t *testing.T) {
	outs := []*outcome{servedOutcome(), servedOutcome(), {items: make([]*catalog.Item, 8), err: serve.ErrQueueFull}}
	books := serveBooks{served: 2, shed: 1}
	if err := checkTickets(3, outs, books, 8); err != nil {
		t.Fatalf("balanced books rejected: %v", err)
	}
	if err := checkTickets(3, outs[1:], books, 8); err == nil {
		t.Error("a dropped ticket went unnoticed")
	}
	double := slices.Clone(outs)
	double[0] = servedOutcome()
	double[0].waits = 2
	if err := checkTickets(3, double, books, 8); err == nil {
		t.Error("a ticket resolved twice went unnoticed")
	}
	if err := checkTickets(3, outs, serveBooks{served: 1, shed: 1}, 8); err == nil {
		t.Error("serve counters that do not add up to the requests sent went unnoticed")
	}
	short := slices.Clone(outs)
	short[1] = servedOutcome()
	short[1].decs = short[1].decs[:7]
	if err := checkTickets(3, short, books, 8); err == nil {
		t.Error("a response missing a decision went unnoticed")
	}
	if errors.Is(outs[2].err, serve.ErrDeclined) {
		t.Fatal("test setup: shed outcome is not a decline")
	}
}

func TestCheckRestoreCatchesADifference(t *testing.T) {
	live := core.NewRulebase()
	r, err := core.NewWhitelist("ring", "rings")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Add(r, "t"); err != nil {
		t.Fatal(err)
	}
	data, err := live.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	restored := core.NewRulebase()
	if err := restored.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if err := checkRestore(live, restored); err != nil {
		t.Fatalf("equal rulebases rejected: %v", err)
	}
	if err := restored.UpdateConfidence(r.ID, 0.5, "t"); err != nil {
		t.Fatal(err)
	}
	if err := checkRestore(live, restored); err == nil {
		t.Error("a restored rulebase one version ahead went unnoticed")
	}
	if err := live.UpdateConfidence(r.ID, 0.6, "t"); err != nil {
		t.Fatal(err)
	}
	if err := checkRestore(live, restored); err == nil {
		t.Error("a restored rulebase with different content went unnoticed")
	}
}

// TestWindowedQuantileIgnoresAShortBurst checks that slow values filling
// fewer than half of the windows leave the windowed p90 where it was, while
// the plain p90 follows them.
func TestWindowedQuantileIgnoresAShortBurst(t *testing.T) {
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(20 + i%40)
	}
	calm := windowedQuantile(xs, 10, 0.9)
	for i := 120; i < 240; i++ { // windows 4 to 6 of 10
		xs[i] += 100
	}
	if got := windowedQuantile(xs, 10, 0.9); got != calm {
		t.Errorf("windowed p90 moved from %v to %v under a burst in 3 of 10 windows", calm, got)
	}
	if plain := quantile(xs, 0.9); plain <= calm+50 {
		t.Errorf("plain p90 %v did not follow the burst; the test input is too gentle", plain)
	}
	if got, want := windowedQuantile(xs[:5], 10, 0.5), quantile(xs[:5], 0.5); got != want {
		t.Errorf("fewer values than windows: got %v, want the plain quantile %v", got, want)
	}
}

// TestWorkloadsRunSmall runs every workload briefly on small inputs, untraced
// and traced, and checks that each reports its full metric set.
func TestWorkloadsRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a second")
	}
	for name, fn := range workloads {
		for _, traced := range []bool{false, true} {
			e := &env{
				in:       mustInputs(t, 11),
				seconds:  time.Second,
				workers:  2,
				stateDir: t.TempDir(),
				rep:      newReport(),
				settings: map[string]any{},
			}
			if traced {
				e.tr = newTracer()
			}
			if err := fn(e); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := e.rep.result(traced)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !traced && !res.Correct {
				t.Errorf("%s: output checks failed: %v", name, e.rep.problems)
			}
			if res.Attempted < 1 {
				t.Errorf("%s: nothing attempted", name)
			}
			if !traced {
				for m, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", name, m, v.Value)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric sets
// the benchmark prints in step: same names, same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		specd []struct{ Name, Unit string }
		code  map[string]string
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		got := map[string]string{}
		for _, m := range c.specd {
			got[m.Name] = m.Unit
		}
		if !maps.Equal(got, c.code) {
			t.Errorf("%s in BENCHMARK.json %v, benchmark prints %v", c.what, got, c.code)
		}
	}
}
