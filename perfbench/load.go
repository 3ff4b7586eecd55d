package main

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/chimera"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

type ticket = *serve.Ticket[chimera.Decision]

// outcome is what happened to one request.
type outcome struct {
	items  []*catalog.Item
	due    time.Time     // when the schedule said to send it
	sent   time.Time     // when SubmitCtx was called
	submit time.Duration // SubmitCtx's own duration
	done   time.Time     // when the ticket resolved (zero on a submit error)
	depth  float64       // serve_queue_depth at arrival
	decs   []chimera.Decision
	snapV  uint64 // snapshot the request was classified under
	rbV    uint64 // rulebase version when Wait returned
	err    error  // submit or resolution error
	waits  int    // times the ticket was observed resolved (must be 1)
}

func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// loadTarget is the server under load and what the load reads beside it.
type loadTarget struct {
	srv   *serve.Server[chimera.Decision]
	rb    *core.Rulebase
	depth *obs.Gauge
}

func newLoadTarget(sys *system) loadTarget {
	return loadTarget{srv: sys.srv, rb: sys.p.Rules, depth: sys.reg.Gauge(serve.MetricQueueDepth)}
}

// requestSource hands out a run's requests in seed order, drawing each one
// when asked: requests drawn ahead would sit in the heap that the program's
// garbage collector paces itself against.
type requestSource struct {
	mu sync.Mutex
	in *inputs
}

func (s *requestSource) next() []*catalog.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.in.request()
}

// openLoop sends requests at a fixed rate (requests per second) until
// `until` has passed, whatever the server's state. One generator goroutine
// submits and one collector goroutine observes resolutions; there is no
// goroutine per request. It returns once every submitted ticket has
// resolved, with how many requests it sent.
func openLoop(t loadTarget, src *requestSource, rate float64, until time.Duration) (outs []*outcome, sent int) {
	n := int(rate * until.Seconds())
	// Sized to hold every request the generator sends, so it never blocks
	// on the collector.
	inflight := make(chan *pendingReq, n)
	results := make(chan []*outcome, 1)
	go func() { results <- collect(t, inflight) }()

	var failed []*outcome
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k+1) / rate * float64(time.Second)))
		items := src.next()
		time.Sleep(time.Until(due))
		o := &outcome{items: items, due: due, depth: t.depth.Value()}
		o.sent = time.Now()
		tk, err := t.srv.SubmitCtx(context.Background(), items)
		o.submit = time.Since(o.sent)
		sent++
		if err != nil {
			o.err = err
			failed = append(failed, o)
			continue
		}
		inflight <- &pendingReq{o, tk}
	}
	close(inflight)
	return append(<-results, failed...), sent
}

type pendingReq struct {
	o  *outcome
	tk ticket
}

// collect waits on every in-flight ticket at once and stamps each outcome
// when its ticket resolves, in whatever order the workers finish.
func collect(t loadTarget, in <-chan *pendingReq) []*outcome {
	var out []*outcome
	var open []*pendingReq
	cases := []reflect.SelectCase{{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(in)}}
	for in != nil || len(open) > 0 {
		chosen, v, ok := reflect.Select(cases)
		if chosen == 0 {
			if !ok {
				in = nil
				cases[0].Chan = reflect.ValueOf((<-chan *pendingReq)(nil))
				continue
			}
			pr := v.Interface().(*pendingReq)
			open = append(open, pr)
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(pr.tk.Done())})
			continue
		}
		pr := open[chosen-1]
		pr.o.done = time.Now()
		pr.o.decs, pr.o.snapV, pr.o.err = resolve(pr.tk)
		pr.o.rbV = t.rb.Version()
		pr.o.waits++
		out = append(out, pr.o)
		open = append(open[:chosen-1], open[chosen:]...)
		cases = append(cases[:chosen], cases[chosen+1:]...)
	}
	return out
}

// resolve reads a resolved ticket.
func resolve(tk ticket) ([]chimera.Decision, uint64, error) {
	decs, snap, err := tk.Wait()
	if err != nil {
		return nil, 0, err
	}
	return decs, snap.Version(), nil
}

// closedLoop runs `clients` callers, each sending its next request only
// after the previous one resolved, until `until` has passed. It returns the
// outcomes, the wall time of the phase and how many requests were sent.
func closedLoop(t loadTarget, clients int, src *requestSource, until time.Duration) ([]*outcome, time.Duration, int) {
	var sent atomic.Int64
	var mu sync.Mutex
	var out []*outcome
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < until {
				o := &outcome{items: src.next(), depth: t.depth.Value()}
				o.sent = time.Now()
				o.due = o.sent
				tk, err := t.srv.SubmitCtx(context.Background(), o.items)
				o.submit = time.Since(o.sent)
				sent.Add(1)
				if err != nil {
					o.err = err
				} else {
					o.decs, o.snapV, o.err = resolve(tk)
					o.done = time.Now()
					o.rbV = t.rb.Version()
					o.waits++
				}
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start), int(sent.Load())
}

// served counts the items of outcomes that resolved with decisions.
func served(outs []*outcome) int {
	n := 0
	for _, o := range outs {
		if o.err == nil {
			n += len(o.decs)
		}
	}
	return n
}

// quality is precision and recall against TrueType over served decisions.
type quality struct{ emitted, correct, total int }

func (q *quality) add(decs []chimera.Decision) {
	for _, d := range decs {
		q.total++
		if d.Declined {
			continue
		}
		q.emitted++
		if d.Type == d.Item.TrueType {
			q.correct++
		}
	}
}

func (q *quality) addOutcomes(outs []*outcome) {
	for _, o := range outs {
		q.add(o.decs)
	}
}

func (q quality) precision() float64 { return ratio(float64(q.correct), float64(q.emitted)) }
func (q quality) recall() float64    { return ratio(float64(q.correct), float64(q.total)) }
