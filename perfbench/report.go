package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// endToEnd lists the metrics a user of the system sees, with their units.
// Every workload reports every one of them (see README.md for what each
// means on each workload); BENCHMARK.json names the same set.
var endToEnd = map[string]string{
	"setup_s":     "s",
	"heap_mb":     "MB",
	"items_per_s": "1/s",
	"precision":   "frac",
	"recall":      "frac",
	"p50_ms":      "ms",
	"p75_ms":      "ms",
}

// perLayer lists the traced run's layer metrics, with their units. A layer a
// workload leaves idle reports 0.
var perLayer = map[string]string{
	"catalog.tokenize_us_per_item": "us",

	"core.gate_us_per_item":          "us",
	"core.rules_us_per_item":         "us",
	"core.gate_decided_frac":         "frac",
	"core.rules_candidates_per_item": "count",
	"core.candidate_match_frac":      "frac",
	"core.index_build_ms":            "ms",
	"core.rules_active":              "count",

	"learn.nb_us_per_item":           "us",
	"learn.knn_us_per_item":          "us",
	"learn.perceptron_us_per_item":   "us",
	"learn.ensemble_us_per_item":     "us",
	"learn.ensemble_allocs_per_item": "count",
	"learn.ensemble_bytes_per_item":  "B",

	"chimera.batch_us_per_item":     "us",
	"chimera.residual_us_per_item":  "us",
	"chimera.stage_sum_ratio":       "ratio",
	"chimera.allocs_per_item":       "count",
	"chimera.bytes_per_item":        "B",
	"chimera.decided_gate_frac":     "frac",
	"chimera.decided_rules_frac":    "frac",
	"chimera.decided_ensemble_frac": "frac",
	"chimera.declined_frac":         "frac",

	"obs.audit_captured_per_item": "count",

	"serve.submit_us_p50":            "us",
	"serve.submit_us_p99":            "us",
	"serve.sojourn_ms_p50":           "ms",
	"serve.sojourn_ms_p99":           "ms",
	"serve.queue_depth_mean":         "count",
	"serve.queue_depth_max":          "count",
	"serve.service_ms_per_request":   "ms",
	"serve.generator_late_ms_max":    "ms",
	"serve.shed":                     "count",
	"serve.expired":                  "count",
	"serve.slo_miss_frac":            "frac",
	"serve.snapshot_swaps":           "count",
	"serve.swaps_per_mutation":       "ratio",
	"serve.snapshot_build_ms_p50":    "ms",
	"serve.snapshot_build_ms_p99":    "ms",
	"serve.stale_versions_mean":      "count",
	"serve.repeat_frac":              "frac",
	"serve.cache_hit_frac":           "frac",
	"persist.fsync_ms_p50":           "ms",
	"persist.wal_bytes_per_mutation": "B",
	"persist.compactions":            "count",
	"persist.compaction_ms_p50":      "ms",
	"persist.open_ms":                "ms",
	"persist.restore_ms":             "ms",
	"persist.replayed":               "count",

	"trace.items_per_s": "1/s",
	"trace.p50_ms":      "ms",
	"trace.p75_ms":      "ms",
}

// report is what one workload run measured and checked.
type report struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	problems  []string // failed output checks; any makes the run incorrect
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// copyTraced records the end-to-end figures of a traced run as layer
// metrics: set beside an untraced run's, they give the tracing overhead.
func (r *report) copyTraced() {
	for _, name := range []string{"items_per_s", "p50_ms", "p75_ms"} {
		r.layers["trace."+name] = r.e2e[name]
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the final line: the end-to-end metrics untraced, the
// layer metrics traced. A missing end-to-end metric is a benchmark bug.
func (r *report) result(traced bool) (resultLine, error) {
	want, have := endToEnd, r.e2e
	if traced {
		want, have = perLayer, r.layers
	}
	out := resultLine{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for name, unit := range want {
		v, ok := have[name]
		if !ok && !traced {
			return out, fmt.Errorf("workload did not measure %s", name)
		}
		out.Metrics[name] = metricValue{v, unit}
	}
	return out, nil
}

// writeSelfTimes prints, per span name, the count, total and self time of
// the traced spans, for people.
func writeSelfTimes(w io.Writer, t *tracer) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans: %-44s %8s %12s %12s\n", "name", "count", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "  %-50s %8d %12.1f %12.1f\n", n, st[n].Count, ms(st[n].Total), ms(st[n].Self))
	}
}

// writeTable prints the metrics one per line, sorted, for people.
func writeTable(w io.Writer, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func writeJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
