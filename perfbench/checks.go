package main

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/catalog"
	"repro/internal/chimera"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// sameDecision compares the fields a batch decision must share with the
// per-item reference path: type, declined, reason and evidence.
func sameDecision(a, b chimera.Decision) bool {
	return a.Type == b.Type && a.Declined == b.Declined && a.Reason == b.Reason &&
		slices.Equal(a.Evidence, b.Evidence)
}

// checkDecisions re-classifies the sampled positions of a batch through the
// reference path (a fresh copy of each item) and returns how many batch
// decisions differ, with the first difference described.
func checkDecisions(classify func(*catalog.Item) chimera.Decision, items []*catalog.Item,
	decs []chimera.Decision, sample []int) (mismatches int, first string) {
	for _, i := range sample {
		ref := classify(items[i].Relabeled(items[i].TrueType))
		if !sameDecision(decs[i], ref) {
			if mismatches == 0 {
				first = fmt.Sprintf("item %s: batch %q/%v/%q/%v, reference %q/%v/%q/%v", items[i].ID,
					decs[i].Type, decs[i].Declined, decs[i].Reason, decs[i].Evidence,
					ref.Type, ref.Declined, ref.Reason, ref.Evidence)
			}
			mismatches++
		}
	}
	return mismatches, first
}

// serveBooks is the serve layer's own accounting, read by metric name.
type serveBooks struct {
	served, shed, expired, declinedItems int64
}

func readBooks(snap *obs.Snapshot) serveBooks {
	return serveBooks{
		served:        int64(counter(snap, serve.MetricBatches)),
		shed:          int64(counter(snap, serve.MetricShed)),
		expired:       int64(counter(snap, serve.MetricDeadlineExpired)),
		declinedItems: int64(counter(snap, serve.MetricDeclined)),
	}
}

func (b serveBooks) minus(a serveBooks) serveBooks {
	return serveBooks{b.served - a.served, b.shed - a.shed, b.expired - a.expired, b.declinedItems - a.declinedItems}
}

// checkTickets checks that every request sent resolved exactly once and that
// sent = served + shed + expired + declined, both by the harness's own count
// and by the server's serve_* counters (books, for these requests only).
func checkTickets(sent int, outs []*outcome, books serveBooks, reqItems int) error {
	if len(outs) != sent {
		return fmt.Errorf("%d requests sent, %d outcomes recorded", sent, len(outs))
	}
	var servedN, shed, expired, declined int64
	for _, o := range outs {
		switch {
		case o.err == nil:
			servedN++
		case errors.Is(o.err, serve.ErrQueueFull):
			shed++
		case errors.Is(o.err, serve.ErrDeclined):
			declined++
		default:
			expired++ // context errors; nothing sets a deadline here
		}
		submitted := o.err == nil || errors.Is(o.err, serve.ErrDeclined)
		if submitted && o.waits != 1 {
			return fmt.Errorf("a ticket resolved %d times", o.waits)
		}
		if o.err == nil && len(o.decs) != len(o.items) {
			return fmt.Errorf("%d decisions for %d items", len(o.decs), len(o.items))
		}
	}
	if got := books.served + books.shed + books.expired + books.declinedItems/int64(reqItems); got != int64(sent) {
		return fmt.Errorf("serve counters: served %d + shed %d + expired %d + declined %d != sent %d",
			books.served, books.shed, books.expired, books.declinedItems/int64(reqItems), sent)
	}
	if books.served != servedN || books.shed != shed {
		return fmt.Errorf("serve counters (served %d, shed %d) disagree with the harness (served %d, shed %d)",
			books.served, books.shed, servedN, shed)
	}
	return nil
}

// checkRestore checks that a rulebase restored from disk equals the live one:
// the same version and the same JSON bytes.
func checkRestore(live, restored *core.Rulebase) error {
	if lv, rv := live.Version(), restored.Version(); lv != rv {
		return fmt.Errorf("restored version %d, live %d", rv, lv)
	}
	a, err := live.MarshalJSON()
	if err != nil {
		return err
	}
	b, err := restored.MarshalJSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("restored rulebase differs from the live one (%d vs %d bytes)", len(b), len(a))
	}
	return nil
}

// counter sums every counter series named name whose labels include the
// given name/value pairs.
func counter(snap *obs.Snapshot, name string, labels ...string) float64 {
	var sum float64
	for _, c := range snap.Counters {
		if c.Name == name && hasLabels(c.Labels, labels) {
			sum += float64(c.Value)
		}
	}
	return sum
}

// histogram returns the merged histogram series named name (nil when absent).
func histogram(snap *obs.Snapshot, name string) *obs.HistogramPoint {
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == name {
			return &snap.Histograms[i]
		}
	}
	return nil
}

func hasLabels(have []obs.Label, want []string) bool {
	for i := 0; i+1 < len(want); i += 2 {
		if !slices.Contains(have, obs.Label{Name: want[i], Value: want[i+1]}) {
			return false
		}
	}
	return true
}
