package catalog

import (
	"encoding/json"
	"strings"
	"testing"
)

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	return New(Config{Seed: 42, NumTypes: 80, NumVendors: 20})
}

func TestTaxonomySize(t *testing.T) {
	c := testCatalog(t)
	if len(c.Types()) != 80 {
		t.Fatalf("want 80 types, got %d", len(c.Types()))
	}
	names := map[string]bool{}
	for _, ty := range c.Types() {
		if names[ty.Name] {
			t.Fatalf("duplicate type name %q", ty.Name)
		}
		names[ty.Name] = true
	}
	if !names["rings"] || !names["motor oil"] || !names["handbags"] {
		t.Fatal("curated seed types missing from taxonomy")
	}
}

func TestTaxonomyTruncation(t *testing.T) {
	c := New(Config{Seed: 1, NumTypes: 10})
	if len(c.Types()) != 10 {
		t.Fatalf("want truncated taxonomy of 10, got %d", len(c.Types()))
	}
}

func TestSyntheticTail(t *testing.T) {
	c := New(Config{Seed: 1, NumTypes: 200})
	synth := 0
	for _, ty := range c.Types() {
		if ty.Synthetic {
			synth++
			if len(ty.HeadTerms) == 0 || len(ty.Brands) == 0 {
				t.Fatalf("synthetic type %q lacks vocabulary", ty.Name)
			}
		}
	}
	if synth < 100 {
		t.Fatalf("expected >100 synthetic tail types, got %d", synth)
	}
}

func TestDeterminism(t *testing.T) {
	a := New(Config{Seed: 7, NumTypes: 60}).GenerateBatch(BatchSpec{Size: 50, Epoch: 0})
	b := New(Config{Seed: 7, NumTypes: 60}).GenerateBatch(BatchSpec{Size: 50, Epoch: 0})
	if len(a) != len(b) {
		t.Fatal("batch sizes differ")
	}
	for i := range a {
		if a[i].Title() != b[i].Title() || a[i].TrueType != b[i].TrueType {
			t.Fatalf("item %d differs across identically-seeded catalogs", i)
		}
	}
}

func TestAttributeDeterminism(t *testing.T) {
	// Regression: type-specific attributes were generated in map-iteration
	// order, consuming the RNG nondeterministically; every attribute value
	// must now be identical across identically-seeded catalogs.
	gen := func() []*Item {
		c := New(Config{Seed: 83, NumTypes: 60, ZipfS: 1.3})
		return c.GenerateBatch(BatchSpec{Size: 400, Epoch: 0, OnlyTypes: []string{"books", "laptop computers", "smart phones"}})
	}
	a, b := gen(), gen()
	for i := range a {
		if len(a[i].Attrs) != len(b[i].Attrs) {
			t.Fatalf("item %d attr count differs: %v vs %v", i, a[i].Attrs, b[i].Attrs)
		}
		for k, v := range a[i].Attrs {
			if b[i].Attrs[k] != v {
				t.Fatalf("item %d attr %q differs: %q vs %q", i, k, v, b[i].Attrs[k])
			}
		}
	}
}

func TestSeedChangesOutput(t *testing.T) {
	a := New(Config{Seed: 7, NumTypes: 60}).GenerateBatch(BatchSpec{Size: 30, Epoch: 0})
	b := New(Config{Seed: 8, NumTypes: 60}).GenerateBatch(BatchSpec{Size: 30, Epoch: 0})
	same := 0
	for i := range a {
		if a[i].Title() == b[i].Title() {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical batches")
	}
}

func TestBatchBasics(t *testing.T) {
	c := testCatalog(t)
	items := c.GenerateBatch(BatchSpec{Size: 500, Epoch: 0})
	if len(items) != 500 {
		t.Fatalf("want 500 items, got %d", len(items))
	}
	ids := map[string]bool{}
	for _, it := range items {
		if it.Attrs["Title"] == "" {
			t.Fatal("item missing Title")
		}
		if it.ID == "" || ids[it.ID] {
			t.Fatalf("bad or duplicate id %q", it.ID)
		}
		ids[it.ID] = true
		if it.TrueType == "" || c.TypeByName(it.TrueType) == nil {
			t.Fatalf("item has unknown true type %q", it.TrueType)
		}
		if it.Vendor == "" {
			t.Fatal("item missing vendor")
		}
	}
}

func TestZipfHeadTailShape(t *testing.T) {
	c := testCatalog(t)
	items := c.GenerateBatch(BatchSpec{Size: 8000, Epoch: 0})
	counts := map[string]int{}
	for _, it := range items {
		counts[it.TrueType]++
	}
	headName := c.Types()[0].Name
	// The rank-0 type should be much more frequent than a deep-tail type.
	tailName := c.Types()[len(c.Types())-1].Name
	if counts[headName] < 10*counts[tailName]+10 {
		t.Fatalf("no head/tail skew: head %q=%d tail %q=%d",
			headName, counts[headName], tailName, counts[tailName])
	}
	// Many types should sit well below the uniform share (the "tail rules"
	// territory: rules that touch only a few items).
	uniformShare := len(items) / len(c.Types())
	rare := 0
	for _, ty := range c.Types() {
		if counts[ty.Name] < uniformShare/3 {
			rare++
		}
	}
	if rare < 10 {
		t.Fatalf("expected a long tail of rare types (<%d items), got %d rare", uniformShare/3, rare)
	}
}

func TestConceptDriftEmergingVocabulary(t *testing.T) {
	c := New(Config{Seed: 3, NumTypes: 55})
	countTerm := func(epoch int, term string) int {
		items := c.GenerateBatch(BatchSpec{Size: 4000, Epoch: epoch, OnlyTypes: []string{"computer cables"}})
		n := 0
		for _, it := range items {
			if strings.Contains(it.Title(), term) {
				n++
			}
		}
		return n
	}
	if n := countTerm(0, "thunderbolt"); n != 0 {
		t.Fatalf("epoch-0 batch already uses the epoch-2 term: %d", n)
	}
	if n := countTerm(3, "thunderbolt"); n == 0 {
		t.Fatal("epoch-3 batch never uses the emerged term")
	}
}

func TestVendorNewVocabulary(t *testing.T) {
	c := New(Config{Seed: 5, NumTypes: 55, NumVendors: 30})
	// Find a NewVocabulary vendor.
	var nv string
	for _, v := range c.Vendors() {
		if v.NewVocabulary {
			nv = v.Name
			break
		}
	}
	if nv == "" {
		t.Skip("no new-vocabulary vendor in this population")
	}
	count := func(vendor string) (headish, total int) {
		items := c.GenerateBatch(BatchSpec{Size: 2500, Epoch: 2, Vendor: vendor, OnlyTypes: []string{"handbags"}})
		for _, it := range items {
			total++
			if strings.Contains(it.Title(), "handbag") {
				headish++
			}
		}
		return headish, total
	}
	nvHead, nvTotal := count(nv)
	stdHead, stdTotal := count("") // mixed vendors
	nvRate := float64(nvHead) / float64(nvTotal)
	stdRate := float64(stdHead) / float64(stdTotal)
	if nvRate >= stdRate {
		t.Fatalf("new-vocabulary vendor should avoid head terms: %v vs %v", nvRate, stdRate)
	}
}

func TestUnknownVendorGetsNewVocabulary(t *testing.T) {
	c := testCatalog(t)
	items := c.GenerateBatch(BatchSpec{Size: 10, Epoch: 0, Vendor: "brand-new-vendor"})
	for _, it := range items {
		if it.Vendor != "brand-new-vendor" {
			t.Fatalf("vendor attribution lost: %q", it.Vendor)
		}
	}
}

func TestSegmentBias(t *testing.T) {
	c := testCatalog(t)
	plain := c.GenerateBatch(BatchSpec{Size: 4000, Epoch: 0})
	biased := c.GenerateBatch(BatchSpec{Size: 4000, Epoch: 0, SegmentBias: "apparel", BiasFactor: 8})
	frac := func(items []*Item) float64 {
		n := 0
		for _, it := range items {
			if c.TypeByName(it.TrueType).Segment == "apparel" {
				n++
			}
		}
		return float64(n) / float64(len(items))
	}
	if frac(biased) <= frac(plain)*1.5 {
		t.Fatalf("segment bias ineffective: plain=%v biased=%v", frac(plain), frac(biased))
	}
}

func TestOnlyTypes(t *testing.T) {
	c := testCatalog(t)
	items := c.GenerateBatch(BatchSpec{Size: 100, Epoch: 0, OnlyTypes: []string{"rings", "jeans"}})
	for _, it := range items {
		if it.TrueType != "rings" && it.TrueType != "jeans" {
			t.Fatalf("OnlyTypes violated: %q", it.TrueType)
		}
	}
}

func TestBookAttributes(t *testing.T) {
	c := testCatalog(t)
	items := c.GenerateBatch(BatchSpec{Size: 300, Epoch: 0, OnlyTypes: []string{"books"}})
	withISBN := 0
	for _, it := range items {
		if isbn, ok := it.Attrs["isbn"]; ok {
			withISBN++
			if !strings.HasPrefix(isbn, "978") || len(isbn) != 13 {
				t.Fatalf("malformed isbn %q", isbn)
			}
		}
	}
	if withISBN < 200 {
		t.Fatalf("books should usually carry isbn; got %d/300", withISBN)
	}
}

func TestFigure1JSONShape(t *testing.T) {
	c := testCatalog(t)
	it := c.GenerateBatch(BatchSpec{Size: 1, Epoch: 0})[0]
	data, err := json.Marshal(it)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["Item ID"] == "" || m["Title"] == "" {
		t.Fatalf("Figure-1 required attributes missing: %v", m)
	}
	if _, ok := m["TrueType"]; ok {
		t.Fatal("ground truth must not leak into the serialized item")
	}
}

func TestTitleTokensCached(t *testing.T) {
	c := testCatalog(t)
	it := c.GenerateBatch(BatchSpec{Size: 1, Epoch: 0})[0]
	a := it.TitleTokens()
	b := it.TitleTokens()
	if &a[0] != &b[0] {
		t.Fatal("TitleTokens should cache")
	}
}

func TestLabeledDataAndSplit(t *testing.T) {
	c := testCatalog(t)
	labeled := c.LabeledData(5000)
	covered, uncovered := SplitTraining(labeled, 10)
	if len(covered) == 0 {
		t.Fatal("no covered types at all")
	}
	if len(uncovered) == 0 {
		t.Fatal("expected some uncovered tail types (the 30% gap of §3.3)")
	}
	for ty, n := range covered {
		if n < 10 {
			t.Fatalf("covered type %q has %d < 10 items", ty, n)
		}
	}
}

func TestTrapPhrases(t *testing.T) {
	c := testCatalog(t)
	items := c.GenerateBatch(BatchSpec{Size: 3000, Epoch: 0, OnlyTypes: []string{"rings"}})
	traps := 0
	for _, it := range items {
		if strings.Contains(it.Title(), "wedding band") && !strings.Contains(it.Title(), "ring") {
			traps++
		}
	}
	if traps == 0 {
		t.Fatal("expected some 'wedding band' trap titles without the token ring")
	}
}

func TestVendorFocus(t *testing.T) {
	c := testCatalog(t)
	v := c.Vendors()[0]
	if len(v.FocusSegments) == 0 {
		t.Fatal("vendor without focus segments")
	}
	items := c.GenerateBatch(BatchSpec{Size: 2000, Epoch: 0, Vendor: v.Name})
	inFocus := 0
	focus := map[string]bool{}
	for _, s := range v.FocusSegments {
		focus[s] = true
	}
	for _, it := range items {
		if focus[c.TypeByName(it.TrueType).Segment] {
			inFocus++
		}
	}
	if float64(inFocus)/float64(len(items)) < 0.3 {
		t.Fatalf("vendor focus too weak: %d/%d in focus", inFocus, len(items))
	}
}
