package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/chimera"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
)

const (
	// setupRepeats is how many times a run sets the system up; setup_s is
	// the median.
	setupRepeats = 5
	// queueDepth is the serve queue bound (the serve package default).
	queueDepth = 64
	// voteThreshold is E1's setting: marginal ensemble-only predictions are
	// declined, precision over recall.
	voteThreshold = 0.62
)

// system is one set-up pipeline and whatever fronts it in a workload.
type system struct {
	p     *chimera.Pipeline
	reg   *obs.Registry
	srv   *serve.Server[chimera.Decision] // nil on ingest
	store *persist.Store                  // nil unless the workload persists
	dir   string
}

// setupOpts says what a workload needs besides the trained pipeline.
type setupOpts struct {
	server     bool
	persistDir string // attach an fsync'd persist.Store here when set
}

// setUp builds a ready system and returns the time it took: New, Train on
// the labeled set, rule load, the first snapshot and, when asked, the
// persist store and the server. Every step goes through public calls.
func setUp(in *inputs, workers int, o setupOpts) (*system, time.Duration, error) {
	reg := obs.NewRegistry()
	start := time.Now()
	p := chimera.New(chimera.Config{Seed: in.seed + 11, Workers: workers, VoteThreshold: voteThreshold, Obs: reg})
	s := &system{p: p, reg: reg, dir: o.persistDir}
	p.Train(in.labeled)
	if err := in.loadRules(p.Rules); err != nil {
		return nil, 0, err
	}
	// The engine's first snapshot is built at New over the empty rulebase,
	// and starting it (NewServer) does not rebuild. One Classify on the
	// still-passive engine publishes the snapshot of the loaded rules.
	probe := in.labeled[0]
	p.Classify(probe.Relabeled(probe.TrueType))
	if o.persistDir != "" {
		st, err := persist.Open(persist.Options{Dir: o.persistDir, Fsync: true, Obs: reg})
		if err != nil {
			return nil, 0, err
		}
		if err := st.Attach(p.Rules); err != nil {
			st.Close()
			return nil, 0, err
		}
		s.store = st
	}
	if o.server {
		s.srv = p.NewServer(serve.ServerOptions{Workers: workers, QueueDepth: queueDepth})
	}
	d := time.Since(start)
	if v, cur := p.Rules.Version(), p.Snapshots().Current().Version(); v != cur {
		s.close()
		return nil, 0, fmt.Errorf("set-up left snapshot %d behind rulebase %d", cur, v)
	}
	return s, d, nil
}

// close stops the server (draining every queued request), the snapshot
// engine and the persist store.
func (s *system) close() error {
	if s.srv != nil {
		s.srv.Drain()
	}
	s.p.Close()
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// setUpRepeated sets the system up setupRepeats times, keeps the last one and
// returns the median set-up time. Earlier systems are torn down; with a
// persist directory each set-up gets its own subdirectory.
func setUpRepeated(in *inputs, workers int, o setupOpts) (*system, float64, error) {
	var times []float64
	var sys *system
	base := o.persistDir
	for k := 0; k < setupRepeats; k++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, 0, err
			}
			if sys.dir != "" {
				os.RemoveAll(sys.dir)
			}
		}
		if base != "" {
			o.persistDir = filepath.Join(base, fmt.Sprintf("setup-%d", k))
		}
		var d time.Duration
		var err error
		sys, d, err = setUp(in, workers, o)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
	}
	return sys, median(times), nil
}

// heapMB is the live heap after full collections, in megabytes. HeapAlloc
// rather than HeapInuse: the latter also counts free slots in partly used
// spans, which moved by 12% between runs of the same seed. Two collections,
// because a sync.Pool's objects survive the first one in its victim cache:
// with one, maintain's heap read 14.7 or 16.8 MB for the same seed,
// depending on whether the program had collected since its last pooled
// encode.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
