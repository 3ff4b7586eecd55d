package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded call into a layer. Spans of one batch or request
// share req; parent is the index of the enclosing span, or -1.
type span struct {
	Name    string `json:"name"`
	Req     int64  `json:"req"`
	Parent  int32  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends. A nil
// *tracer records nothing, which is how untraced runs use the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, req int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, StartNS: now, EndNS: -1})
	return int32(len(t.spans) - 1)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndNS = now
	return time.Duration(now - s.StartNS)
}

// record adds a span that was timed elsewhere (a call timed by the caller).
func (t *tracer) record(name string, req int64, parent int32, start time.Time, d time.Duration) int32 {
	if t == nil {
		return -1
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, StartNS: s, EndNS: s + d.Nanoseconds()})
	return int32(len(t.spans) - 1)
}

// layerTime is the summed total and self time of every span with one name.
type layerTime struct {
	Count       int
	Total, Self time.Duration
}

// selfTimes derives per-name totals and self times: a span's self time is its
// duration minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	childCover := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.EndNS >= 0 {
			childCover[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		if s.EndNS < 0 {
			continue
		}
		d := s.EndNS - s.StartNS
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - min(childCover[i], d))
		out[s.Name] = lt
	}
	return out
}

// writeFile writes the spans as JSON lines to path.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
