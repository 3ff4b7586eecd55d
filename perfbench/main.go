// Command perfbench is the repository's end-to-end benchmark. It drives the
// Chimera pipeline from outside, through public calls only, on one of three
// workloads (ingest, serve, maintain), checks the outputs and prints every
// metric with its unit; the last line of standard output is one JSON object.
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 35 --trace 0
//
// With --trace 1 the same workload runs with spans around each call into a
// layer plus replays of the layers' public calls, and the layer metrics are
// printed instead. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// env is one run's settings and shared state.
type env struct {
	in       *inputs
	seconds  time.Duration
	workers  int
	tr       *tracer // nil when untraced
	stateDir string  // scratch space inside the checkout, removed at exit
	rep      *report
	settings map[string]any
}

var workloads = map[string]func(*env) error{
	"ingest":   runIngest,
	"serve":    runServe,
	"maintain": runMaintain,
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "ingest, serve or maintain")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 35, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload ingest|serve|maintain, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	in, err := newInputs(*seed, defaultSizes, filepath.Join(".bench_build", "inputs"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	e := &env{
		in:       in,
		seconds:  time.Duration(*seconds) * time.Second,
		workers:  runtime.NumCPU(),
		stateDir: filepath.Join(".bench_build", "state", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		rep:      newReport(),
	}
	defer os.RemoveAll(e.stateDir)
	if *trace == 1 {
		e.tr = newTracer()
	}
	e.settings = map[string]any{
		"workload":      *workload,
		"seed":          *seed,
		"seconds":       *seconds,
		"trace":         *trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        gitCommit(),
		"workers":       e.workers,
		"catalog_seed":  catalogSeed,
		"train_items":   len(in.labeled),
		"mined_rules":   len(in.mined),
		"batch_items":   in.sz.BatchSize,
		"req_items":     in.sz.ReqItems,
		"low_rate":      lowRate,
		"capacity_rate": capacityRate,
	}
	if err := fn(e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if e.tr != nil {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := e.tr.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		e.settings["spans"] = path
	}
	res, err := e.rep.result(e.tr != nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Print("settings: ")
	if err := writeJSON(os.Stdout, e.settings); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if e.tr != nil {
		writeSelfTimes(os.Stdout, e.tr)
	}
	for _, p := range e.rep.problems {
		fmt.Printf("check failed: %s\n", p)
	}
	writeTable(os.Stdout, res.Metrics)
	if err := writeJSON(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// gitCommit reads the checked-out commit from .git without running git, or
// reports "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
