// Package faultinject is the deterministic fault-injection layer for the
// serving stack. Production rule platforms (the paper's §3.3 Chimera
// deployment; RuleGenie-style SIEM engines) are long-running services whose
// failure behaviour — slow handlers, stalled snapshot rebuilds, crowd workers
// that time out or never answer — must be provable, not anecdotal. An
// Injector is a seeded source of such faults: every decision comes from a
// splitmix-derived stream, so a chaos run with the same seed injects the
// same faults in the same order per call-site, and a failure found in CI
// reproduces locally.
//
// The injector is safe for concurrent use (server workers, the engine
// rebuild loop and crowd calls all draw from it at once) and counts every
// fault it injects, so harnesses can assert both "faults actually fired"
// and "invariants held anyway".
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/randx"
)

// ErrInjected is the root of every injected error, so tests can
// errors.Is-match a fault regardless of which site raised it.
var ErrInjected = errors.New("faultinject: injected fault")

// ErrRebuild is the injected snapshot-rebuild failure; it wraps ErrInjected.
var ErrRebuild = fmt.Errorf("%w: rebuild failure", ErrInjected)

// Config parameterizes an Injector. All probabilities are in [0,1]; a zero
// probability disables that fault family, so the zero Config injects nothing.
type Config struct {
	// Seed derives the deterministic fault stream.
	Seed uint64

	// HandlerLatencyP is the probability that one handler invocation is
	// slowed by HandlerLatency (default 2ms when the probability is set and
	// the duration is zero).
	HandlerLatencyP float64
	HandlerLatency  time.Duration

	// RebuildStallP stalls a snapshot rebuild by RebuildStall (default 5ms);
	// RebuildErrorP fails the rebuild outright with ErrRebuild.
	RebuildStallP float64
	RebuildStall  time.Duration
	RebuildErrorP float64

	// CrowdTimeoutP is the probability that a crowd worker's answer times
	// out: the assignment is charged but no answer is recorded. CrowdNoShowP
	// is the probability a worker never picks the task up at all: no answer
	// and no charge.
	CrowdTimeoutP float64
	CrowdNoShowP  float64

	// WALTornWriteP is the probability that one write-ahead-log append is
	// torn: only a uniformly-drawn prefix of the frame reaches the disk, as
	// if the process died mid-write. WALShortReadP is the probability that
	// one replay read is cut short to a uniformly-drawn prefix of the file —
	// the read-side analogue (partial page, truncated copy). Both model the
	// crash-consistency surface internal/persist must recover from.
	WALTornWriteP float64
	WALShortReadP float64
}

func (c Config) withDefaults() Config {
	if c.HandlerLatencyP > 0 && c.HandlerLatency == 0 {
		c.HandlerLatency = 2 * time.Millisecond
	}
	if c.RebuildStallP > 0 && c.RebuildStall == 0 {
		c.RebuildStall = 5 * time.Millisecond
	}
	return c
}

// Injector is a concurrent, seeded fault source. The zero value is not
// usable; construct with New. A nil *Injector is valid everywhere and
// injects nothing, so call sites need no guards.
type Injector struct {
	cfg Config

	mu     sync.Mutex
	rng    *randx.Rand
	counts map[string]int
}

// New builds an injector from cfg. New(Config{}) injects nothing but still
// counts (all zeros) — handy as an always-on wiring point.
func New(cfg Config) *Injector {
	cfg = cfg.withDefaults()
	return &Injector{
		cfg:    cfg,
		rng:    randx.New(cfg.Seed).Split("faultinject"),
		counts: map[string]int{},
	}
}

// roll draws one Bernoulli decision under the injector lock and counts the
// fault under name when it fires.
func (j *Injector) roll(p float64, name string) bool {
	if j == nil || p <= 0 {
		return false
	}
	j.mu.Lock()
	hit := j.rng.Bool(p)
	if hit {
		j.counts[name]++
	}
	j.mu.Unlock()
	return hit
}

// HandlerDelay returns the latency to inject into the current handler
// invocation (0 = none). The caller sleeps; the injector only decides.
func (j *Injector) HandlerDelay() time.Duration {
	if j.roll(j.cfgOf().HandlerLatencyP, "handler_latency") {
		return j.cfg.HandlerLatency
	}
	return 0
}

// RebuildFault decides the fate of one snapshot rebuild: a stall duration
// (0 = none) and/or an outright failure (ErrRebuild). Matches the
// serve.Engine rebuild hook signature.
func (j *Injector) RebuildFault() (stall time.Duration, err error) {
	cfg := j.cfgOf()
	if j.roll(cfg.RebuildStallP, "rebuild_stall") {
		stall = cfg.RebuildStall
	}
	if j.roll(cfg.RebuildErrorP, "rebuild_error") {
		err = ErrRebuild
	}
	return stall, err
}

// WALTornWrite decides whether a WAL append of n bytes is torn, returning
// how many bytes actually reach the disk: n means the write is intact, any
// smaller value is the surviving prefix (possibly 0). Counted as
// "wal_torn_write".
func (j *Injector) WALTornWrite(n int) int {
	return j.prefix(n, j.cfgOf().WALTornWriteP, "wal_torn_write")
}

// WALShortRead decides whether a replay read of n bytes is cut short,
// returning how many bytes the reader sees (n = intact). Counted as
// "wal_short_read".
func (j *Injector) WALShortRead(n int) int {
	return j.prefix(n, j.cfgOf().WALShortReadP, "wal_short_read")
}

// prefix draws one Bernoulli decision and, on a hit, a uniform prefix length
// in [0, n); both draws come from the same seeded stream under one lock
// acquisition so runs replay deterministically.
func (j *Injector) prefix(n int, p float64, name string) int {
	if j == nil || p <= 0 || n <= 0 {
		return n
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.rng.Bool(p) {
		return n
	}
	j.counts[name]++
	return j.rng.Intn(n)
}

// CrowdTimeout reports whether one crowd assignment times out (charged, no
// answer recorded).
func (j *Injector) CrowdTimeout() bool { return j.roll(j.cfgOf().CrowdTimeoutP, "crowd_timeout") }

// CrowdNoShow reports whether one crowd assignment is never picked up (no
// charge, no answer).
func (j *Injector) CrowdNoShow() bool { return j.roll(j.cfgOf().CrowdNoShowP, "crowd_noshow") }

// cfgOf tolerates nil receivers so every public method is nil-safe.
func (j *Injector) cfgOf() Config {
	if j == nil {
		return Config{}
	}
	return j.cfg
}

// Counts returns a copy of the per-fault injection tallies ("handler_latency",
// "rebuild_stall", "rebuild_error", "crowd_timeout",
// "crowd_noshow", "wal_torn_write", "wal_short_read").
func (j *Injector) Counts() map[string]int {
	if j == nil {
		return map[string]int{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]int, len(j.counts))
	for k, v := range j.counts {
		out[k] = v
	}
	return out
}

// Total returns the total number of injected faults across all families.
func (j *Injector) Total() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, v := range j.counts {
		n += v
	}
	return n
}
