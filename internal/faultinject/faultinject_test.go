package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestDeterminism: two injectors with the same seed and config make the same
// decisions in the same order — the property that makes chaos runs
// reproducible.
func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, HandlerLatencyP: 0.3, RebuildStallP: 0.2, RebuildErrorP: 0.1,
		CrowdTimeoutP: 0.25, CrowdNoShowP: 0.25}
	run := func() []bool {
		j := New(cfg)
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, j.HandlerDelay() > 0)
			_, err := j.RebuildFault()
			out = append(out, err != nil)
			out = append(out, j.CrowdTimeout(), j.CrowdNoShow())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged between identically seeded injectors", i)
		}
	}
}

// TestZeroConfigInjectsNothing: the zero Config and a nil injector are both
// completely inert.
func TestZeroConfigInjectsNothing(t *testing.T) {
	for name, j := range map[string]*Injector{"zero": New(Config{}), "nil": nil} {
		for i := 0; i < 100; i++ {
			if j.HandlerDelay() != 0 {
				t.Fatalf("%s injector injected handler latency", name)
			}
			if stall, err := j.RebuildFault(); stall != 0 || err != nil {
				t.Fatalf("%s injector injected a rebuild fault", name)
			}
			if j.CrowdTimeout() || j.CrowdNoShow() {
				t.Fatalf("%s injector injected a crowd fault", name)
			}
		}
		if j.Total() != 0 {
			t.Fatalf("%s injector counted faults it cannot have injected", name)
		}
	}
}

// TestCountsAndDefaults: probability-1 faults always fire, are tallied per
// family, and duration defaults kick in when only the probability is set.
func TestCountsAndDefaults(t *testing.T) {
	j := New(Config{Seed: 1, HandlerLatencyP: 1, RebuildStallP: 1, RebuildErrorP: 1})
	if d := j.HandlerDelay(); d != 2*time.Millisecond {
		t.Fatalf("default handler latency = %v, want 2ms", d)
	}
	stall, err := j.RebuildFault()
	if stall != 5*time.Millisecond {
		t.Fatalf("default rebuild stall = %v, want 5ms", stall)
	}
	if !errors.Is(err, ErrInjected) || !errors.Is(err, ErrRebuild) {
		t.Fatalf("rebuild error %v must match ErrInjected and ErrRebuild", err)
	}
	counts := j.Counts()
	if counts["handler_latency"] != 1 || counts["rebuild_stall"] != 1 || counts["rebuild_error"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if j.Total() != 3 {
		t.Fatalf("total = %d, want 3", j.Total())
	}
}

// TestConcurrentUse: the injector is drawn from many goroutines at once (as
// server workers, the rebuild loop and crowd calls do); run under -race this
// is the data-race check, and the tally must equal the observed hits.
func TestConcurrentUse(t *testing.T) {
	j := New(Config{Seed: 3, HandlerLatencyP: 0.5, HandlerLatency: time.Nanosecond})
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	hits := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if j.HandlerDelay() > 0 {
					hits[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, h := range hits {
		total += h
	}
	if got := j.Counts()["handler_latency"]; got != total {
		t.Fatalf("tally %d != observed hits %d", got, total)
	}
	if total == 0 || total == goroutines*per {
		t.Fatalf("p=0.5 produced degenerate hit count %d/%d", total, goroutines*per)
	}
}
