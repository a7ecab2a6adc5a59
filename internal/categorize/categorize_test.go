package categorize

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"twsearch/internal/dtw"
)

func randValues(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Round(rng.NormFloat64()*1000) / 100
	}
	return vals
}

func TestEqualLengthBasics(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 10}
	s, err := Fit(KindEqualLength, vals, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != KindEqualLength {
		t.Fatalf("kind = %q", s.Kind())
	}
	if s.NumCategories() != 5 {
		t.Fatalf("categories = %d, want 5", s.NumCategories())
	}
	// Width (10-0)/5 = 2 per bin.
	for i := 0; i < 5; i++ {
		c := s.Category(i)
		if math.Abs((c.Hi-c.Lo)-2) > 1e-12 {
			t.Errorf("category %d width = %v", i, c.Hi-c.Lo)
		}
	}
	// Every fitted value maps inside its category's observed interval.
	for _, v := range vals {
		iv := s.Interval(s.Symbol(v))
		if v < iv.Lo || v > iv.Hi {
			t.Errorf("value %v outside interval %+v of its own category", v, iv)
		}
	}
}

func TestEqualLengthPaperExample(t *testing.T) {
	// Section 5's example: C1=[0.1,3.9], C2=[4.0,10.0] maps
	// S7=<5.27,2.56,3.85> to <C2,C1,C1>. We fit EL with 2 bins on values
	// spanning [0.1, 10.0]; the midpoint boundary 5.05 reproduces the same
	// symbol pattern.
	vals := []float64{0.1, 3.9, 4.0, 10.0, 5.27, 2.56, 3.85}
	s, err := Fit(KindEqualLength, vals, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Encode([]float64{5.27, 2.56, 3.85})
	want := []Symbol{1, 0, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Encode = %v, want %v", got, want)
	}
}

func TestMaxEntropyEqualCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := randValues(rng, 10000)
	s, err := Fit(KindMaxEntropy, vals, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCategories() != 10 {
		t.Fatalf("categories = %d, want 10", s.NumCategories())
	}
	for i := 0; i < s.NumCategories(); i++ {
		c := s.Category(i)
		if c.Count < 800 || c.Count > 1200 {
			t.Errorf("category %d count = %d, far from uniform 1000", i, c.Count)
		}
	}
	// ME entropy should be close to log2(10).
	if h := s.Entropy(); h < 3.2 {
		t.Errorf("entropy = %v, want near %v", h, math.Log2(10))
	}
}

func TestMaxEntropyBeatsEqualLengthOnSkewedData(t *testing.T) {
	// Heavily skewed data: EL wastes bins on the empty range, ME does not.
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = math.Exp(rng.NormFloat64()) // log-normal
	}
	el, err := Fit(KindEqualLength, vals, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	me, err := Fit(KindMaxEntropy, vals, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if me.Entropy() <= el.Entropy() {
		t.Errorf("ME entropy %v <= EL entropy %v on skewed data", me.Entropy(), el.Entropy())
	}
}

func TestMaxEntropyHeavyTies(t *testing.T) {
	// 90% of values identical: boundaries collapse instead of duplicating.
	vals := make([]float64, 100)
	for i := range vals {
		if i < 90 {
			vals[i] = 5
		} else {
			vals[i] = float64(i)
		}
	}
	s, err := Fit(KindMaxEntropy, vals, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCategories() > 10 || s.NumCategories() < 1 {
		t.Fatalf("categories = %d", s.NumCategories())
	}
	// All fitted values must still encode into categories containing them.
	for _, v := range vals {
		iv := s.Interval(s.Symbol(v))
		if v < iv.Lo || v > iv.Hi {
			t.Fatalf("value %v outside its interval %+v", v, iv)
		}
	}
}

func TestKMeans(t *testing.T) {
	// Three well-separated clusters must be recovered exactly.
	var vals []float64
	rng := rand.New(rand.NewSource(7))
	for _, center := range []float64{0, 100, 200} {
		for i := 0; i < 100; i++ {
			vals = append(vals, center+rng.Float64())
		}
	}
	s, err := Fit(KindKMeans, vals, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCategories() != 3 {
		t.Fatalf("categories = %d, want 3", s.NumCategories())
	}
	for i, c := range []float64{0.5, 100.5, 200.5} {
		if got := int(s.Symbol(c)); got != i {
			t.Errorf("Symbol(%v) = %d, want %d", c, got, i)
		}
	}
	for i := 0; i < 3; i++ {
		if n := s.Category(i).Count; n != 100 {
			t.Errorf("category %d count = %d, want 100", i, n)
		}
	}
}

func TestIdentityIsLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := randValues(rng, 500)
	s, err := Fit(KindIdentity, vals, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		iv := s.Interval(s.Symbol(v))
		if iv.Lo != v || iv.Hi != v {
			t.Fatalf("identity interval of %v is %+v, want point", v, iv)
		}
	}
	// Distinct values get distinct symbols.
	a, b := s.Symbol(vals[0]), s.Symbol(vals[0])
	if a != b {
		t.Fatal("same value mapped to different symbols")
	}
}

func TestDegenerateSingleValue(t *testing.T) {
	vals := []float64{7, 7, 7}
	for _, kind := range []Kind{KindEqualLength, KindMaxEntropy, KindKMeans, KindIdentity} {
		s, err := Fit(kind, vals, 10, 10)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if s.NumCategories() != 1 {
			t.Errorf("%s: categories = %d, want 1", kind, s.NumCategories())
		}
		if s.Symbol(7) != 0 {
			t.Errorf("%s: Symbol(7) != 0", kind)
		}
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(KindEqualLength, nil, 5, 0); err != ErrNoValues {
		t.Errorf("Fit(EL, nil): err = %v", err)
	}
	if _, err := Fit(KindMaxEntropy, []float64{1}, 0, 0); err != ErrBadCount {
		t.Errorf("MaxEntropy count 0: err = %v", err)
	}
	if _, err := Fit("bogus", []float64{1}, 2, 2); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestSymbolTotal(t *testing.T) {
	// Out-of-sample values (queries can have them) must clamp, not panic.
	s, err := Fit(KindEqualLength, []float64{0, 10}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Symbol(-100) != 0 {
		t.Error("below-range value not clamped to first category")
	}
	if int(s.Symbol(100)) != s.NumCategories()-1 {
		t.Error("above-range value not clamped to last category")
	}
}

// Property: Symbol's grid-narrowed search picks the category
// sort.SearchFloat64s over the upper boundaries picks (clamped to the last),
// for every kind of scheme — as fitted and as read back from its file — and
// every kind of value: fitted values, values on and next to a boundary,
// out-of-range values, ±Inf and NaN.
func TestQuickSymbolMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := func() bool {
		vals := randValues(rng, 1+rng.Intn(200))
		s, err := Fit([]Kind{KindEqualLength, KindMaxEntropy, KindKMeans, KindIdentity}[rng.Intn(4)], vals, 1+rng.Intn(12), 1)
		if err != nil {
			return false
		}
		var file bytes.Buffer
		if err := s.Write(&file); err != nil {
			return false
		}
		reread, err := ReadScheme(&file)
		if err != nil {
			return false
		}
		probes := append([]float64{math.Inf(-1), math.Inf(1), math.NaN(), -1e300, 1e300}, vals...)
		for _, u := range s.uppers {
			probes = append(probes, u, math.Nextafter(u, math.Inf(-1)), math.Nextafter(u, math.Inf(1)))
		}
		for _, v := range probes {
			want := min(sort.SearchFloat64s(s.uppers, v), s.NumCategories()-1)
			if int(s.Symbol(v)) != want || int(reread.Symbol(v)) != want {
				t.Logf("%s scheme, %d categories: Symbol(%v) = %d (%d reread), sort.SearchFloat64s says %d", s.Kind(), s.NumCategories(), v, s.Symbol(v), reread.Symbol(v), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: for every fitted categorizer and every fitted value v,
// the observed interval of v's category contains v, and the interval is
// contained in the boundary range. This is exactly what Theorem 2 needs
// from the categorization layer.
func TestQuickIntervalsContainValues(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func() bool {
		vals := randValues(rng, 1+rng.Intn(300))
		c := 1 + rng.Intn(20)
		for _, kind := range []Kind{KindEqualLength, KindMaxEntropy, KindKMeans, KindIdentity} {
			s, err := Fit(kind, vals, c, 10)
			if err != nil {
				return false
			}
			for _, v := range vals {
				cat := s.Category(int(s.Symbol(v)))
				if v < cat.ObsLo || v > cat.ObsHi {
					return false
				}
				if cat.ObsLo < cat.Lo-1e-9 || cat.ObsHi > cat.Hi+1e-9 {
					return false
				}
			}
			// Counts sum to the number of fitted values.
			total := 0
			for i := 0; i < s.NumCategories(); i++ {
				total += s.Category(i).Count
			}
			if total != len(vals) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the lower-bound distance through any categorizer never exceeds
// the exact distance (Theorem 2 end to end at the categorize+dtw level).
func TestQuickTheorem2(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func() bool {
		vals := randValues(rng, 50+rng.Intn(100))
		c := 1 + rng.Intn(15)
		for _, kind := range []Kind{KindEqualLength, KindMaxEntropy, KindKMeans} {
			s, err := Fit(kind, vals, c, 10)
			if err != nil {
				return false
			}
			// Pick a subsequence of the fitted data and a random query.
			start := rng.Intn(len(vals) - 1)
			end := start + 1 + rng.Intn(len(vals)-start-1)
			sub := vals[start:end]
			q := randValues(rng, 1+rng.Intn(12))
			syms := s.Encode(sub)
			ivs := make([]dtw.Interval, len(syms))
			for i, sym := range syms {
				ivs[i] = s.Interval(sym)
			}
			if dtw.DistanceIntervals(q, ivs) > dtw.Distance(sub, q)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRunHeads(t *testing.T) {
	syms := []Symbol{1, 1, 1, 3, 2, 2}
	got := RunHeads(syms)
	want := []int{0, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RunHeads = %v, want %v", got, want)
	}
	if RunLengthAt(syms, 0) != 3 || RunLengthAt(syms, 3) != 1 || RunLengthAt(syms, 4) != 2 {
		t.Fatal("RunLengthAt wrong")
	}
	if RunHeads(nil) != nil {
		t.Fatal("RunHeads(nil) != nil")
	}
}

// Property: run heads partition the sequence into maximal equal runs.
func TestQuickRunHeads(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	f := func() bool {
		n := 1 + rng.Intn(50)
		syms := make([]Symbol, n)
		for i := range syms {
			syms[i] = Symbol(rng.Intn(3))
		}
		heads := RunHeads(syms)
		covered := 0
		for i, h := range heads {
			runLen := RunLengthAt(syms, h)
			if h != covered {
				return false
			}
			covered += runLen
			// Run content equal, and differs from the next run's first symbol.
			for j := h; j < h+runLen; j++ {
				if syms[j] != syms[h] {
					return false
				}
			}
			if i+1 < len(heads) && syms[heads[i+1]] == syms[h] {
				return false
			}
		}
		return covered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelSelect(t *testing.T) {
	m := CostModel{Wt: 1, Ws: 0.001}
	measures := []Measure{
		{Count: 10, TimeCost: 100, SpaceCost: 500},
		{Count: 80, TimeCost: 20, SpaceCost: 4000},
		{Count: 300, TimeCost: 25, SpaceCost: 25000},
	}
	best, err := m.SelectCount(measures)
	if err != nil {
		t.Fatal(err)
	}
	if best.Count != 80 {
		t.Fatalf("best count = %d, want 80", best.Count)
	}
	if _, err := m.SelectCount(nil); err == nil {
		t.Fatal("empty measures accepted")
	}
	// Space-dominated weights flip the choice.
	m2 := CostModel{Wt: 0.001, Ws: 1}
	best2, _ := m2.SelectCount(measures)
	if best2.Count != 10 {
		t.Fatalf("space-weighted best = %d, want 10", best2.Count)
	}
}

func TestSchemeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vals := randValues(rng, 200)
	for _, kind := range []Kind{KindEqualLength, KindMaxEntropy, KindKMeans, KindIdentity} {
		s, err := Fit(kind, vals, 7, 10)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			t.Fatalf("%s Write: %v", kind, err)
		}
		got, err := ReadScheme(&buf)
		if err != nil {
			t.Fatalf("%s ReadScheme: %v", kind, err)
		}
		if got.Kind() != s.Kind() || got.NumCategories() != s.NumCategories() {
			t.Fatalf("%s: header mismatch", kind)
		}
		for i := 0; i < s.NumCategories(); i++ {
			if got.Category(i) != s.Category(i) {
				t.Fatalf("%s: category %d mismatch: %+v vs %+v", kind, i, got.Category(i), s.Category(i))
			}
		}
		// Same encoding behaviour after the round trip.
		probe := randValues(rng, 50)
		if !reflect.DeepEqual(got.Encode(probe), s.Encode(probe)) {
			t.Fatalf("%s: encoding differs after round trip", kind)
		}
	}
}

func TestReadSchemeErrors(t *testing.T) {
	if _, err := ReadScheme(bytes.NewReader([]byte("short"))); err == nil {
		t.Error("short stream accepted")
	}
	if _, err := ReadScheme(bytes.NewReader([]byte("XXXXXXXXrest"))); err == nil {
		t.Error("bad magic accepted")
	}
	// A header declaring 10⁹ categories over a stream holding one: a typed
	// error, and no allocation sized by the declared count.
	huge := append([]byte("TWCATSC1\x01\x00\xca\x9a\x3b"), make([]byte, 40)...)
	if _, err := ReadScheme(bytes.NewReader(huge)); !errors.Is(err, ErrTruncatedScheme) {
		t.Errorf("truncated stream: %v, want ErrTruncatedScheme", err)
	}
}

// maxEntropyReference is the fit as the paper words it — sort everything,
// read the boundaries off the quantile positions — and what MaxEntropy must
// agree with byte for byte.
func maxEntropyReference(values []float64, c int) *Scheme {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1]
	if lo == hi {
		return newScheme(KindMaxEntropy, []float64{lo}, []float64{hi}).observe(values)
	}
	var uppers []float64
	for i := 0; i < c-1; i++ {
		if q := sorted[(i+1)*len(sorted)/c]; len(uppers) == 0 || q > uppers[len(uppers)-1] {
			uppers = append(uppers, q)
		}
	}
	if len(uppers) == 0 || hi > uppers[len(uppers)-1] {
		uppers = append(uppers, hi)
	}
	lowers := append([]float64{lo}, uppers[:len(uppers)-1]...)
	return newScheme(KindMaxEntropy, lowers, uppers).observe(values)
}

// sameAsReference fails the test when MaxEntropy's scheme file is not the
// reference's, or when fitting modified the values.
func sameAsReference(t testing.TB, what string, values []float64, c int) {
	t.Helper()
	before := append([]float64(nil), values...)
	got, err := Fit(KindMaxEntropy, values, c, 0)
	if err != nil {
		t.Fatalf("%s: Fit(ME, %d values, %d): %v", what, len(values), c, err)
	}
	for i, v := range values {
		if math.Float64bits(v) != math.Float64bits(before[i]) {
			t.Fatalf("%s: Fit(ME, %d values, %d) modified values[%d]", what, len(values), c, i)
		}
	}
	var gotFile, wantFile bytes.Buffer
	if err := errors.Join(got.Write(&gotFile), maxEntropyReference(values, c).Write(&wantFile)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFile.Bytes(), wantFile.Bytes()) {
		t.Fatalf("%s: Fit(ME, %d values, %d) writes a different scheme than the sort-based reference", what, len(values), c)
	}
}

// The selecting fit and the sorting one write the same scheme file, for
// every shape of input the selection treats differently: spread, skewed and
// tied values, a constant, one outlier that leaves every other value in a
// single cell, fewer values than categories, and sizes either side of the
// cutoff below which the fit sorts.
func TestQuickMaxEntropyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shapes := map[string]func(n int) []float64{
		"uniform": func(n int) []float64 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = rng.Float64()*200 - 100
			}
			return vals
		},
		"skewed": func(n int) []float64 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = math.Exp(rng.ExpFloat64() * 3)
			}
			return vals
		},
		"ties": func(n int) []float64 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(rng.Intn(7)) / 2
			}
			return vals
		},
		"constant": func(n int) []float64 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = 42.5
			}
			return vals
		},
		"outlier": func(n int) []float64 {
			vals := randValues(rng, n)
			vals[rng.Intn(n)] = 1e15
			return vals
		},
	}
	names := []string{"uniform", "skewed", "ties", "constant", "outlier"}
	sizes := []int{1, 2, 7, selectMinValues - 1, selectMinValues, selectMinValues + 1, 300_000}
	f := func() bool {
		n := sizes[rng.Intn(len(sizes))]
		if rng.Intn(2) == 0 {
			n = 1 + rng.Intn(20_000)
		}
		c := 1 + rng.Intn(300) // often above n: fewer values than categories
		name := names[rng.Intn(len(names))]
		sameAsReference(t, name, shapes[name](n), c)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	for _, name := range names { // the largest size in every shape, whatever the draw
		sameAsReference(t, name, shapes[name](300_000), 200)
	}
}

// Values a comparison cannot place — NaN, infinities, a -0 beside a +0 — and
// a range whose width overflows go through the fit without a panic and come
// out as the reference's scheme.
func TestMaxEntropyOddValues(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for name, odd := range map[string][]float64{
		"NaN":       {math.NaN()},
		"+Inf":      {math.Inf(1)},
		"-Inf":      {math.Inf(-1)},
		"both Infs": {math.Inf(-1), math.Inf(1), math.NaN()},
		"zeros":     {math.Copysign(0, -1), 0, math.Copysign(0, -1), 0},
		"overflow":  {-math.MaxFloat64, math.MaxFloat64},
		"subnormal": {5e-324},
	} {
		for _, n := range []int{len(odd), 100, 3 * selectMinValues} {
			vals := randValues(rng, n)
			if name == "subnormal" { // a range too narrow for a cell width
				for i := range vals {
					vals[i] = float64(rng.Intn(3)) * 5e-324
				}
			}
			if name == "zeros" {
				for i := range vals {
					vals[i] = math.Round(vals[i] / 10) // plenty of +0 for the -0 to tie with
				}
			}
			for _, v := range odd {
				vals[rng.Intn(n)] = v
			}
			for _, c := range []int{1, 2, 9, 200} {
				sameAsReference(t, name, vals, c)
			}
		}
	}
}

// BenchmarkFitMaxEntropy fits the benchmark workloads' two shapes: the
// scalar database's 253 k values into 200 categories, and one coordinate of
// the trajectories into 12.
func BenchmarkFitMaxEntropy(b *testing.B) {
	vals := randValues(rand.New(rand.NewSource(31)), 253_000)
	for i := 1; i < len(vals); i++ {
		vals[i] = vals[i-1] + vals[i]/100 // a walk, like the stock data
	}
	for _, c := range []int{200, 12} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Fit(KindMaxEntropy, vals, c, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
