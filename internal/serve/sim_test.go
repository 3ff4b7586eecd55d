package serve

// The deterministic simulation/soak harness for the serving path. Each run
// drives a seeded workload — interleaved classifications from concurrent
// clients, rulebase mutations, snapshot rebuild faults (stalls and outright
// failures), injected handler latency, and caller deadline expiries — for K
// virtual seconds (rounds), and asserts the global invariants the server
// promises:
//
//   - every ticket resolves exactly once, with either verdicts or one of the
//     explicit failure errors — never silence;
//   - verdicts are byte-identical (Verdict.Explain) to an oracle engine's
//     verdicts at the same rulebase version, even while the served snapshot
//     lags behind mutations or is pinned stale by an injected rebuild
//     failure;
//   - the books close: sent == served + shed + expired + declined + rejected,
//     and the harness's own books match the serve_* counters exactly.
//
// The workload is seeded (catalog, mutation schedule, fault schedule,
// deadline draws all derive from one seed), so a failure reproduces; the
// invariants are schedule-free, so the test is sound under -race on any
// box. Three distinct seeds run in CI.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/randx"
)

// errSimRebuild is the sim's injected rebuild failure.
var errSimRebuild = errors.New("sim: injected rebuild failure")

// simTally is the harness's accounting book, in requests; servedItems and
// declinedItems count items for the item-denominated serve_* counters.
type simTally struct {
	sent, served, shed, expired, declined, rejected int64
	servedItems, declinedItems                      int64
}

func TestSimSoakEquivalence(t *testing.T) {
	for _, seed := range []uint64{3, 17, 1009} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			simRun(t, seed)
		})
	}
}

// repeatSimSeed runs its soak with one duplicated submission per round, so
// the equivalence oracle also covers repeat traffic: the same item pointers
// classified concurrently by two workers under mutation churn.
const repeatSimSeed = 1009

func simRun(t *testing.T, seed uint64) {
	const (
		rounds     = 18 // virtual seconds
		clients    = 3
		batchesPer = 2
		batchSize  = 12
		mutations  = 5 // per round
	)
	rng := randx.New(seed).Split("sim")
	cat := catalog.New(catalog.Config{Seed: seed, NumTypes: 25})
	rb := buildPropertyRulebase(t, cat, seed)
	var ruleIDs []string
	for _, r := range rb.All() {
		ruleIDs = append(ruleIDs, r.ID)
	}

	// The oracle: a passive engine (synchronous Acquire) recording an
	// immutable snapshot of EVERY rulebase version the run passes through.
	// A served snapshot of any version — current, debounce-stale, or pinned
	// by a failed rebuild — is then comparable against the oracle's snapshot
	// at that same version.
	oracle := NewEngine(rb, EngineOptions{Obs: obs.NewRegistry()})
	oracleSnaps := map[uint64]*Snapshot{}
	record := func() {
		snap := oracle.Acquire()
		oracleSnaps[snap.Version()] = snap
	}
	record()

	// Injected handler latency for the whole run; rebuild faults rotate per
	// round below.
	inj := faultinject.New(faultinject.Config{
		Seed:            seed + 1,
		HandlerLatencyP: 0.35, HandlerLatency: 300 * time.Microsecond,
	})

	repeatOn := seed == repeatSimSeed
	reg := obs.NewRegistry()
	eng := NewEngine(rb, EngineOptions{Debounce: 100 * time.Microsecond, Obs: reg})
	srv := NewServer(eng, func(ctx context.Context, snap *Snapshot, it *catalog.Item) string {
		if d := inj.HandlerDelay(); d > 0 {
			time.Sleep(d)
		}
		return snap.Rules().Apply(it).Explain()
	}, ServerOptions{
		Workers: 2,
		// A shallow queue so overload (sheds) is reachable when injected
		// latency piles work up — failure is part of the soak.
		QueueDepth: 2,
		Obs:        reg,
	})

	var books simTally
	type submission struct {
		items  []*catalog.Item
		ticket *Ticket[string]
		cancel context.CancelFunc
		err    error
	}

	for round := 0; round < rounds; round++ {
		// Fault schedule for this virtual second: maybe fault the rebuild
		// path (stall or hard failure), maybe run clean.
		eng.SetRebuildFault(nil)
		if rng.Bool(0.5) {
			if rng.Bool(0.5) {
				eng.SetRebuildFault(func() (time.Duration, error) {
					return 200 * time.Microsecond, nil
				})
			} else {
				eng.SetRebuildFault(func() (time.Duration, error) {
					return 0, errSimRebuild
				})
			}
		}

		// Pre-generate the round's batches (the catalog generator is not
		// concurrency-safe), with seeded deadline draws: roughly one in four
		// submissions is deadline-bound tightly enough that it may expire
		// while queued.
		subs := make([]*submission, 0, clients*batchesPer)
		for c := 0; c < clients; c++ {
			for b := 0; b < batchesPer; b++ {
				subs = append(subs, &submission{
					items: cat.GenerateBatch(catalog.BatchSpec{Size: batchSize, Epoch: round % 3}),
				})
			}
		}
		if repeatOn && len(subs) >= 2 {
			// Re-submit the same items (same pointers) in a second concurrent
			// submission: repeat traffic racing on the items' lazy token
			// caches — still oracle-checked below.
			subs[1].items = subs[0].items
		}
		deadlines := make([]time.Duration, len(subs))
		for i := range deadlines {
			if rng.Bool(0.25) {
				deadlines[i] = time.Duration(1+rng.Intn(1500)) * time.Microsecond
			}
		}

		// Submit the round's batches from concurrent clients while the
		// driver mutates the rulebase underneath them.
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for b := 0; b < batchesPer; b++ {
					sub := subs[c*batchesPer+b]
					ctx := context.Background()
					sub.cancel = func() {}
					if d := deadlines[c*batchesPer+b]; d > 0 {
						ctx, sub.cancel = context.WithTimeout(ctx, d)
					}
					sub.ticket, sub.err = srv.SubmitCtx(ctx, sub.items)
				}
			}(c)
		}

		// Interleaved maintenance: every mutation is immediately followed by
		// an oracle record, so any version the server can possibly serve is
		// in oracleSnaps before this round's verdicts are compared.
		for m := 0; m < mutations; m++ {
			id := ruleIDs[rng.Intn(len(ruleIDs))]
			switch rng.Intn(3) {
			case 0:
				_ = rb.Disable(id, "sim", "soak churn")
			case 1:
				_ = rb.Enable(id, "sim", "soak churn")
			default:
				_ = rb.UpdateConfidence(id, 0.5+float64(rng.Intn(50))/100, "sim")
			}
			record()
			time.Sleep(50 * time.Microsecond)
		}
		wg.Wait()

		// Resolve every submission, check exactly-once resolution, verify
		// every served batch against the oracle at its actual serving
		// version, and keep the books.
		watchdog, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
		for _, sub := range subs {
			books.sent++
			err := sub.err
			if sub.ticket != nil {
				out, snap, werr := sub.ticket.WaitContext(watchdog)
				if errors.Is(werr, context.DeadlineExceeded) && watchdog.Err() != nil {
					t.Fatalf("seed %d round %d: ticket unresolved after 30s", seed, round)
				}
				select {
				case <-sub.ticket.Done():
				default:
					t.Fatalf("seed %d round %d: Done not closed after Wait", seed, round)
				}
				again, againSnap, againErr := sub.ticket.Wait()
				if againSnap != snap || againErr != werr || len(again) != len(out) {
					t.Fatalf("seed %d round %d: second Wait returned a different resolution", seed, round)
				}
				err = werr
				if err == nil {
					if len(out) != len(sub.items) {
						t.Fatalf("seed %d round %d: %d results for %d items", seed, round, len(out), len(sub.items))
					}
					if snap == nil {
						t.Fatalf("seed %d round %d: served batch without a snapshot", seed, round)
					}
					want, ok := oracleSnaps[snap.Version()]
					if !ok {
						t.Fatalf("seed %d round %d: served version %d the rulebase never published",
							seed, round, snap.Version())
					}
					for i, it := range sub.items {
						if got, exp := out[i], want.Rules().Apply(it).Explain(); got != exp {
							t.Fatalf("seed %d round %d: verdict diverges from oracle at version %d on %q:\n got: %s\nwant: %s",
								seed, round, snap.Version(), it.Title(), got, exp)
						}
					}
				}
			}
			sub.cancel()
			switch {
			case err == nil:
				books.served++
				books.servedItems += int64(len(sub.items))
			case errors.Is(err, ErrQueueFull):
				books.shed++
			case errors.Is(err, ErrShutdown):
				books.rejected++
			case errors.Is(err, ErrDeclined):
				books.declined++
				books.declinedItems += int64(len(sub.items))
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
				books.expired++
			default:
				t.Fatalf("seed %d round %d: unexpected error %v", seed, round, err)
			}
		}
		wcancel()
	}

	srv.Drain()
	eng.Close()

	// The books close, and match the serve_* counters exactly — nothing was
	// dropped or double-counted anywhere between Submit and the metrics.
	b := books
	if b.sent != b.served+b.shed+b.expired+b.declined+b.rejected {
		t.Fatalf("seed %d: accounting leak: sent %d != served %d + shed %d + expired %d + declined %d + rejected %d",
			seed, b.sent, b.served, b.shed, b.expired, b.declined, b.rejected)
	}
	if b.rejected != 0 {
		t.Fatalf("seed %d: %d submissions rejected before shutdown began", seed, b.rejected)
	}
	check := func(name string, want int64) {
		if got := reg.Counter(name).Value(); got != want {
			t.Fatalf("seed %d: %s counter %d != harness books %d", seed, name, got, want)
		}
	}
	check(MetricBatches, b.served)
	check(MetricItems, b.servedItems)
	check(MetricShed, b.shed)
	check(MetricDeadlineExpired, b.expired)
	check(MetricDeclined, b.declinedItems)
	if got := reg.Gauge(MetricQueueDepth).Value(); got != 0 {
		t.Fatalf("seed %d: queue-depth gauge %v after drain, want 0", seed, got)
	}
	if b.served == 0 {
		t.Fatalf("seed %d: sim served nothing — the harness never exercised the happy path", seed)
	}
	buildErrs := reg.Counter(MetricBuildErrors).Value()
	if buildErrs == 0 {
		t.Fatalf("seed %d: no rebuild ever failed — the harness never served a pinned stale snapshot", seed)
	}
	t.Logf("sim seed %d: books=%+v oracle versions=%d rebuild errors=%d faults=%v",
		seed, b, len(oracleSnaps), buildErrs, inj.Counts())
}
