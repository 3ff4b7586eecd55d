package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mining"
)

// sizes fixes how much input one run generates. The benchmark always runs
// with defaultSizes; tests shrink them so input generation stays cheap.
type sizes struct {
	NumTypes  int
	ZipfS     float64
	TrainSize int // labeled items for Pipeline.Train and for mining
	BatchSize int // items per ingest batch
	HotPool   int // distinct items that serve-style traffic repeats
	ReqItems  int // items per serve request
}

// defaultSizes follows experiment E1's catalog (150 types, Zipf 1.3) with
// 4k labeled items: at this training size KNN's posting walk dominates, as it
// does at production scale, which the repo's 500-item micro-benchmarks hide.
var defaultSizes = sizes{
	NumTypes:  150,
	ZipfS:     1.3,
	TrainSize: 4000,
	BatchSize: 5000,
	HotPool:   500,
	ReqItems:  8,
}

const (
	// catalogSeed fixes the deployed system: taxonomy, labeled training set
	// and rules are the same in every run, so runs differ only in the traffic
	// the seed draws, not in what is being served.
	catalogSeed = 1
	// freshEpoch is the epoch of every item classified after training: the
	// next epoch's vocabulary, as in E1's train/test split.
	freshEpoch = 1
	// repeatShare of serve-style items are content repeats drawn from the
	// hot pool with Zipf(repeatZipfS); the rest are never-seen items.
	repeatShare = 0.8
	repeatZipfS = 1.1
)

// ruleSpec is one rule in a load-time form: compiling it is part of set-up.
type ruleSpec struct {
	Source, Target string
	Confidence     float64
}

// inputs is everything a run feeds the program: a fixed catalog, training
// set and rulebase, and traffic derived from the seed alone.
type inputs struct {
	seed    uint64
	sz      sizes
	cat     *catalog.Catalog
	labeled []*catalog.Item
	mined   []ruleSpec // mining.GenerateRules output, in selection order
	rng     *rand.Rand // traffic draws: requests and checked samples
	hot     []*catalog.Item
	zipf    *rand.Zipf
	spare   []*catalog.Item // never-seen items for the fresh share of requests
	addPool []ruleSpec      // whitelists an analyst adds during maintenance
}

// newInputs generates a run's inputs. Nothing here is timed: generation is
// excluded from setup_s. cacheDir, when set, memoizes the mined rules (see
// mineRules).
func newInputs(seed uint64, sz sizes, cacheDir string) (*inputs, error) {
	cat := catalog.New(catalog.Config{Seed: catalogSeed, NumTypes: sz.NumTypes, ZipfS: sz.ZipfS})
	in := &inputs{
		seed:    seed,
		sz:      sz,
		cat:     cat,
		labeled: cat.LabeledData(sz.TrainSize),
		rng:     rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
	}
	mined, err := mineRules(in.labeled, sz, cacheDir)
	if err != nil {
		return nil, err
	}
	in.mined = mined
	// The hot pool is part of the fixed deployment too: with Zipf-skewed
	// repeats a handful of hot items carry a large share of the traffic, so
	// a per-seed pool would make every run a different workload.
	in.hot = cat.GenerateBatch(catalog.BatchSpec{Size: sz.HotPool, Epoch: freshEpoch})
	// The catalog derives each batch's random stream from how many items it
	// has generated so far, so skipping a seed-dependent number of items
	// gives every seed its own fresh traffic from the same catalog.
	cat.GenerateBatch(catalog.BatchSpec{Size: 1 + int(seed%65521), Epoch: freshEpoch})
	in.zipf = rand.NewZipf(in.rng, repeatZipfS, 1, uint64(sz.HotPool-1))
	in.addPool = synonymWhitelists(cat)
	return in, nil
}

// mineRules runs the E4 recipe's mining step over the labeled set: every
// candidate GenerateRules keeps. The result depends only on the program and
// the sizes, so it is memoized in cacheDir under a key made of the running
// executable's hash and the sizes; a rebuilt program mines afresh.
func mineRules(labeled []*catalog.Item, sz sizes, cacheDir string) ([]ruleSpec, error) {
	var path string
	if cacheDir != "" {
		key, err := cacheKey(sz)
		if err != nil {
			return nil, err
		}
		path = filepath.Join(cacheDir, "mined-"+key+".json")
		if data, err := os.ReadFile(path); err == nil {
			var out []ruleSpec
			if err := json.Unmarshal(data, &out); err == nil {
				return out, nil
			}
		}
	}
	res, err := mining.GenerateRules(labeled, mining.Options{
		MinSupport:      0.01,
		MaxRulesPerType: 1 << 30,
		AllowTrainingFP: true,
	})
	if err != nil {
		return nil, fmt.Errorf("mining rules: %w", err)
	}
	var out []ruleSpec
	for _, r := range res.Selected() {
		out = append(out, ruleSpec{r.Source, r.TargetType, r.Confidence})
	}
	if path == "" {
		return out, nil
	}
	data, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return nil, err
	}
	return out, os.Rename(tmp, path)
}

// cacheKey hashes the running executable and the sizes.
func cacheKey(sz sizes) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	fmt.Fprintf(h, "%+v %d", sz, catalogSeed)
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// loadRules compiles and adds the run's rulebase: the analyst seed rules
// (experiments.SeedRules) and the mined whitelists. It is the "rule load" step
// of set-up.
func (in *inputs) loadRules(rb *core.Rulebase) error {
	if err := experiments.SeedRules(in.cat, rb, "analyst"); err != nil {
		return fmt.Errorf("seed rules: %w", err)
	}
	for _, s := range in.mined {
		r, err := core.NewWhitelist(s.Source, s.Target)
		if err != nil {
			return fmt.Errorf("mined rule %q: %w", s.Source, err)
		}
		r.Provenance = "mined"
		r.Confidence = s.Confidence
		if _, err := rb.Add(r, "miner"); err != nil {
			return err
		}
	}
	return nil
}

// batch returns the next ingest batch: fresh next-epoch items, none seen
// before. Successive calls give successive batches of the same seed.
func (in *inputs) batch() []*catalog.Item {
	return in.cat.GenerateBatch(catalog.BatchSpec{Size: in.sz.BatchSize, Epoch: freshEpoch})
}

// request draws one serve request. A repeat is a fresh *Item with the hot
// item's content (Relabeled copies share no lazily computed state), so no
// per-object cache gives a repeat a free ride that real traffic would not.
func (in *inputs) request() []*catalog.Item {
	items := make([]*catalog.Item, in.sz.ReqItems)
	for i := range items {
		if in.rng.Float64() < repeatShare {
			src := in.hot[in.zipf.Uint64()]
			items[i] = src.Relabeled(src.TrueType)
			continue
		}
		if len(in.spare) == 0 {
			in.spare = in.cat.GenerateBatch(catalog.BatchSpec{Size: 256, Epoch: freshEpoch})
		}
		items[i], in.spare = in.spare[0], in.spare[1:]
	}
	return items
}

// repeatFrac is the share of the sent requests' items whose content is a
// hot-pool item: the most any cache keyed on content could save.
func (in *inputs) repeatFrac(outs []*outcome) float64 {
	hot := make(map[string]bool, len(in.hot))
	for _, it := range in.hot {
		hot[it.ID] = true
	}
	var n, rep int
	for _, o := range outs {
		for _, it := range o.items {
			n++
			if hot[it.ID] {
				rep++
			}
		}
	}
	return ratio(float64(rep), float64(n))
}

// synonymWhitelists lists the whitelists an analyst writes after vocabulary
// drift: every head term and synonym of every type, later epochs included
// (SeedRules covers epoch-0 terms only).
func synonymWhitelists(cat *catalog.Catalog) []ruleSpec {
	var out []ruleSpec
	for _, ty := range cat.Types() {
		for _, terms := range [][]catalog.Term{ty.HeadTerms, ty.Synonyms} {
			for _, t := range terms {
				out = append(out, ruleSpec{Source: t.Text, Target: ty.Name, Confidence: 0.9})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Target != out[j].Target {
			return out[i].Target < out[j].Target
		}
		return out[i].Source < out[j].Source
	})
	return out
}
