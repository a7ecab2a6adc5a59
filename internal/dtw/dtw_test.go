package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDistance is Definition 1 verbatim, memoized — the executable spec the
// dynamic program is checked against.
func naiveDistance(a, b []float64) float64 {
	type key struct{ i, j int }
	memo := map[key]float64{}
	var rec func(i, j int) float64
	rec = func(i, j int) float64 {
		if i >= len(a) || j >= len(b) {
			return Inf
		}
		if v, ok := memo[key{i, j}]; ok {
			return v
		}
		base := Base(a[i], b[j])
		var rest float64
		if i == len(a)-1 && j == len(b)-1 {
			rest = 0
		} else {
			rest = Min3(rec(i, j+1), rec(i+1, j), rec(i+1, j+1))
		}
		memo[key{i, j}] = base + rest
		return base + rest
	}
	return rec(0, 0)
}

// TestBase: the base distance of values, of points (city-block) and of a
// point and a box (zero inside it).
func TestBase(t *testing.T) {
	if Base(3, 5) != 2 || Base(5, 3) != 2 || Base(4, 4) != 0 {
		t.Fatal("Base wrong")
	}
	if BasePoint([]float64{1, 2}, []float64{3, 0}) != 4 {
		t.Fatal("BasePoint wrong")
	}
	box := Box{Lo: []float64{0, 10}, Hi: []float64{5, 20}}
	if got := BaseBox([]float64{3, 15}, box); got != 0 {
		t.Fatalf("inside box = %v", got)
	}
	if got := BaseBox([]float64{7, 25}, box); got != 2+5 {
		t.Fatalf("outside box = %v, want 7", got)
	}
}

func TestBaseInterval(t *testing.T) {
	cases := []struct {
		a, lo, hi, want float64
	}{
		{5, 1, 10, 0},
		{1, 1, 10, 0},
		{10, 1, 10, 0},
		{12, 1, 10, 2},
		{-3, 1, 10, 4},
		{5, 5, 5, 0},
		{4, 5, 5, 1},
	}
	for _, c := range cases {
		if got := BaseInterval(c.a, c.lo, c.hi); got != c.want {
			t.Errorf("BaseInterval(%v,%v,%v) = %v, want %v", c.a, c.lo, c.hi, got, c.want)
		}
	}
}

// TestPaperFigure1 reproduces the worked example of Figure 1:
// S3 = <3,4,3>, S4 = <4,5,6,7,6,6>.
func TestPaperFigure1(t *testing.T) {
	s3 := []float64{3, 4, 3}
	s4 := []float64{4, 5, 6, 7, 6, 6}
	if got := Distance(s3, s4); got != 12 {
		t.Errorf("D_tw(S3,S4) = %v, want 12", got)
	}
	// The paper reads D_tw(S3, S4[1:4]) = 8 off the last column of row 4.
	if got := Distance(s3, s4[:4]); got != 8 {
		t.Errorf("D_tw(S3,S4[1:4]) = %v, want 8", got)
	}
	// Same prefix distances via the incremental table: S4 on rows, S3 as query.
	tab := NewTable(s3)
	wantLast := []float64{2, 3, 5, 8, 10, 12}
	for r, v := range s4 {
		dist, _ := tab.AddRowValue(v)
		if dist != wantLast[r] {
			t.Errorf("row %d last column = %v, want %v", r+1, dist, wantLast[r])
		}
	}
}

// TestPaperIntroExample: S1 and S2 from the introduction are identical under
// time warping (S2 at half the sampling rate).
func TestPaperIntroExample(t *testing.T) {
	s1 := []float64{20, 20, 21, 21, 20, 20, 23, 23}
	s2 := []float64{20, 21, 20, 23}
	if got := Distance(s1, s2); got != 0 {
		t.Errorf("D_tw(S1,S2) = %v, want 0", got)
	}
}

// TestTheorem1Example: with eps = 3, Figure 1's table abandons after row 3.
func TestTheorem1Example(t *testing.T) {
	s3 := []float64{3, 4, 3}
	s4 := []float64{4, 5, 6, 7, 6, 6}
	tab := NewTable(s3)
	abandonRow := -1
	for r, v := range s4 {
		_, minDist := tab.AddRowValue(v)
		if minDist > 3 {
			abandonRow = r + 1
			break
		}
	}
	if abandonRow != 3 {
		t.Errorf("abandoned at row %d, want 3", abandonRow)
	}
}

func TestDistanceSingletons(t *testing.T) {
	if got := Distance([]float64{5}, []float64{8}); got != 3 {
		t.Errorf("singleton distance = %v, want 3", got)
	}
	if got := Distance([]float64{5}, []float64{1, 2, 3}); got != 4+3+2 {
		t.Errorf("1xN distance = %v, want 9", got)
	}
}

func TestDistancePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty input")
		}
	}()
	Distance(nil, []float64{1})
}

func randSeq(rng *rand.Rand, maxLen int) []float64 {
	n := 1 + rng.Intn(maxLen)
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Round(rng.NormFloat64()*100) / 10
	}
	return s
}

// TestDistanceMatchesNaive holds Distance to Definition 1, DistancePoints
// over points of dimension 1 to Distance (Figure 1, then random
// sequences), and the table's point rows to DistancePoints.
func TestDistanceMatchesNaive(t *testing.T) {
	if got := DistancePoints([][]float64{{3}, {4}, {3}}, [][]float64{{4}, {5}, {6}, {7}, {6}, {6}}); got != 12 {
		t.Fatalf("DistancePoints of Figure 1 = %v, want 12", got)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		a, b := randSeq(rng, 8), randSeq(rng, 8)
		got, want := Distance(a, b), naiveDistance(a, b)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("Distance(%v,%v) = %v, naive = %v", a, b, got, want)
		}
		if pts := DistancePoints(points(nil, a, 1), points(nil, b, 1)); pts != got {
			t.Fatalf("DistancePoints(%v,%v) = %v, Distance %v", a, b, pts, got)
		}
	}
	// The table's point rows reach DistancePoints in dimension 1 to 3.
	rng = rand.New(rand.NewSource(421))
	for trial := 0; trial < 100; trial++ {
		dim := 1 + rng.Intn(3)
		q, s := randPoints(rng, 6, dim), randPoints(rng, 6, dim)
		if got, want := tableDistance(q, s, dim, -1), DistancePoints(points(nil, s, dim), points(nil, q, dim)); math.Abs(got-want) > 1e-9 {
			t.Fatalf("d=%d: table %v != distance %v", dim, got, want)
		}
	}
}

// randPoints is a random walk of 1 to maxLen points of dimension dim,
// point-major: every coordinate starts in [0, 10) and moves by -1, 0 or 1.
func randPoints(rng *rand.Rand, maxLen, dim int) []float64 {
	n := 1 + rng.Intn(maxLen)
	v := make([]float64, dim)
	for k := range v {
		v[k] = float64(rng.Intn(10))
	}
	out := make([]float64, 0, n*dim)
	for j := 0; j < n; j++ {
		for k := range v {
			v[k] += float64(rng.Intn(3) - 1)
			out = append(out, v[k])
		}
	}
	return out
}

// tableDistance is the last column of the table over q, of points of
// dimension dim under window w, after a row per point of s.
func tableDistance(q, s []float64, dim, w int) float64 {
	var tab Table
	tab.Bind(q, dim, w)
	last := Inf
	for i := 0; i < len(s); i += dim {
		last, _ = tab.AddRowPoint(s[i : i+dim])
	}
	return last
}

func TestQuickSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		a, b := randSeq(rng, 20), randSeq(rng, 20)
		return math.Abs(Distance(a, b)-Distance(b, a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIdentityAndNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func() bool {
		a, b := randSeq(rng, 20), randSeq(rng, 20)
		return Distance(a, a) == 0 && Distance(a, b) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 1 property: the per-row minimum of the cumulative table is
// non-decreasing as rows are appended, so a row whose minimum exceeds eps
// certifies every deeper row does too.
func TestQuickTheorem1Monotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	f := func() bool {
		q, s := randSeq(rng, 12), randSeq(rng, 20)
		tab := NewTable(q)
		prevMin := 0.0
		for _, v := range s {
			_, m := tab.AddRowValue(v)
			if m < prevMin-1e-12 {
				return false
			}
			prevMin = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Table rows must agree with the standalone Distance on every prefix.
func TestQuickTablePrefixDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func() bool {
		q, s := randSeq(rng, 10), randSeq(rng, 10)
		tab := NewTable(q)
		for r := 0; r < len(s); r++ {
			dist, _ := tab.AddRowValue(s[r])
			if math.Abs(dist-Distance(s[:r+1], q)) > 1e-9 {
				return false
			}
			if row := tab.Row(r); row[len(row)-1] != dist {
				return false
			}
		}
		return tab.Depth() == len(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Popping rows with Truncate must restore the table exactly, so a DFS can
// reuse one table.
func TestTablePushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	q := randSeq(rng, 8)
	tab := NewTable(q)
	d1, m1 := tab.AddRowValue(1.5)
	tab.AddRowValue(2.5)
	tab.AddRowValue(-1)
	tab.Truncate(1)
	if tab.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", tab.Depth())
	}
	if row := tab.Row(0); row[len(row)-1] != d1 {
		t.Fatal("row 0 corrupted by Truncate")
	}
	d2, m2 := tab.AddRowValue(1.5) // different branch, same value
	tab.Truncate(0)
	if tab.Depth() != 0 {
		t.Fatal("not empty after pops")
	}
	d1b, m1b := tab.AddRowValue(1.5)
	if d1b != d1 || m1b != m1 {
		t.Fatal("re-adding first row gives different result")
	}
	d2b, m2b := tab.AddRowValue(1.5)
	if d2b != d2 || m2b != m2 {
		t.Fatal("re-adding second row gives different result")
	}
}

func TestTableTruncateAndReset(t *testing.T) {
	tab := NewTable([]float64{1, 2})
	tab.AddRowValue(1)
	tab.AddRowValue(2)
	tab.AddRowValue(3)
	tab.Truncate(1)
	if tab.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", tab.Depth())
	}
	if tab.Cells() != 6 {
		t.Fatalf("cells = %d, want 6", tab.Cells())
	}
	tab.Reset()
	if tab.Depth() != 0 || tab.Cells() != 0 {
		t.Fatal("Reset incomplete")
	}
}

// Truncate to depth 0 empties the row stack like Reset (minus the cell
// counter) and leaves the table fully reusable: rebuilding must reproduce
// the original rows bit-for-bit.
func TestTableTruncateToZero(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	q := randSeq(rng, 6)
	vals := randSeq(rng, 4)

	tab := NewTable(q)
	dists := make([]float64, len(vals))
	mins := make([]float64, len(vals))
	for i, v := range vals {
		dists[i], mins[i] = tab.AddRowValue(v)
	}
	cells := tab.Cells()

	tab.Truncate(0)
	if tab.Depth() != 0 {
		t.Fatalf("depth after Truncate(0) = %d, want 0", tab.Depth())
	}
	if tab.Cells() != cells {
		t.Fatalf("Truncate(0) changed the cell counter: %d != %d", tab.Cells(), cells)
	}
	for i, v := range vals {
		d, m := tab.AddRowValue(v)
		if d != dists[i] || m != mins[i] {
			t.Fatalf("row %d after Truncate(0): (%v, %v), want (%v, %v)", i, d, m, dists[i], mins[i])
		}
	}
}

// A degenerate interval row (lo == hi) is an exact row: its returned
// min-dist must equal the minimum, over all query prefixes, of the
// from-scratch Distance between the accumulated values and that prefix —
// the Theorem-1 pruning value computed independently.
func TestTablePointIntervalMinDist(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	f := func() bool {
		q := randSeq(rng, 7)
		vals := randSeq(rng, 5)
		tab := NewTable(q)
		for r := range vals {
			_, minDist := tab.AddRowInterval(vals[r], vals[r])
			want := Inf
			for j := 1; j <= len(q); j++ {
				if d := Distance(vals[:r+1], q[:j]); d < want {
					want = d
				}
			}
			if math.Abs(minDist-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Popping a row off an empty table — truncating it to depth -1 — panics.
func TestTablePopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTable([]float64{1}).Truncate(-1)
}

// Theorem 2 at the distance level: the interval lower bound never exceeds
// the exact distance for any sequence inside the intervals.
func TestQuickIntervalLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func() bool {
		q, s := randSeq(rng, 10), randSeq(rng, 10)
		ivs := make([]Interval, len(s))
		for i, v := range s {
			lo := v - rng.Float64()*3
			hi := v + rng.Float64()*3
			ivs[i] = Interval{Lo: lo, Hi: hi}
		}
		lb := DistanceIntervals(q, ivs)
		return lb <= Distance(s, q)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Point intervals make the lower bound exact.
func TestQuickPointIntervalsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	f := func() bool {
		q, s := randSeq(rng, 10), randSeq(rng, 10)
		ivs := make([]Interval, len(s))
		for i, v := range s {
			ivs[i] = Interval{Lo: v, Hi: v}
		}
		return math.Abs(DistanceIntervals(q, ivs)-Distance(s, q)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The table's interval rows must agree with DistanceIntervals on prefixes.
func TestQuickTableIntervalRows(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func() bool {
		q := randSeq(rng, 8)
		n := 1 + rng.Intn(8)
		ivs := make([]Interval, n)
		for i := range ivs {
			c := rng.NormFloat64() * 5
			ivs[i] = Interval{Lo: c - rng.Float64(), Hi: c + rng.Float64()}
		}
		tab := NewTable(q)
		for r, iv := range ivs {
			dist, _ := tab.AddRowInterval(iv.Lo, iv.Hi)
			if math.Abs(dist-DistanceIntervals(q, ivs[:r+1])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A window as wide as both sequences constrains nothing: for values, and
// for the table's point rows in dimension 1 to 3.
func TestWindowWideEqualsUnconstrained(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		a, b := randSeq(rng, 12), randSeq(rng, 12)
		w := len(a) + len(b)
		if Distance(a, b) != DistanceWindow(a, b, w) {
			t.Fatalf("wide window differs: %v vs %v", Distance(a, b), DistanceWindow(a, b, w))
		}
	}
	rng = rand.New(rand.NewSource(521))
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.Intn(3)
		q, s := randPoints(rng, 6, dim), randPoints(rng, 6, dim)
		got, want := tableDistance(q, s, dim, (len(q)+len(s))/dim), DistancePoints(points(nil, s, dim), points(nil, q, dim))
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("d=%d: wide window %v != unconstrained %v", dim, got, want)
		}
	}
}

func TestWindowMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 100; trial++ {
		a, b := randSeq(rng, 10), randSeq(rng, 10)
		prev := Inf
		for w := 0; w <= len(a)+len(b); w++ {
			d := DistanceWindow(a, b, w)
			if d > prev+1e-9 {
				t.Fatalf("window %d increased distance: %v > %v", w, d, prev)
			}
			prev = d
		}
		if prev != Distance(a, b) {
			t.Fatalf("max window != unconstrained")
		}
	}
}

func TestWindowTooNarrow(t *testing.T) {
	// |len(a)-len(b)| = 3 > w = 1: the band cannot connect the corners.
	d := DistanceWindow([]float64{1, 1, 1, 1, 1}, []float64{1, 1}, 1)
	if !math.IsInf(d, 1) {
		t.Fatalf("narrow band distance = %v, want Inf", d)
	}
	// The table's point rows: four rows against one column under window 1.
	if d := tableDistance([]float64{0}, []float64{0, 0, 0, 0}, 1, 1); !math.IsInf(d, 1) {
		t.Fatalf("narrow band table distance = %v, want Inf", d)
	}
}

func TestWindowZeroIsLockstep(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 2, 5}
	// w=0 forces the diagonal: |1-2|+|2-2|+|3-5| = 3.
	if got := DistanceWindow(a, b, 0); got != 3 {
		t.Fatalf("lockstep distance = %v, want 3", got)
	}
}

func TestWindowNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	DistanceWindow([]float64{1}, []float64{1}, -1)
}

func TestTableWindowMatchesDistanceWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		q, s := randSeq(rng, 8), randSeq(rng, 8)
		w := rng.Intn(6)
		tab := NewTableWindow(q, w)
		var last float64
		for _, v := range s {
			last, _ = tab.AddRowValue(v)
		}
		want := DistanceWindow(s, q, w)
		if last != want && !(math.IsInf(last, 1) && math.IsInf(want, 1)) {
			t.Fatalf("table window dist %v != %v (w=%d q=%v s=%v)", last, want, w, q, s)
		}
	}
}

func TestMinMaxAnswerLength(t *testing.T) {
	mn, mx := MinMaxAnswerLength(20, 5)
	if mn != 15 || mx != 25 {
		t.Fatalf("got (%d,%d), want (15,25)", mn, mx)
	}
	mn, mx = MinMaxAnswerLength(3, 10)
	if mn != 1 || mx != 13 {
		t.Fatalf("got (%d,%d), want (1,13)", mn, mx)
	}
}

func TestAlignMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 200; trial++ {
		a, b := randSeq(rng, 10), randSeq(rng, 10)
		d, path := Align(a, b)
		if math.Float64bits(d) != math.Float64bits(Distance(a, b)) {
			t.Fatalf("Align distance %v != %v", d, Distance(a, b))
		}
		// Path validity: starts at origin, ends at the far corner, each step
		// advances x, y, or both by one, and base distances along the path
		// sum to the distance.
		if path[0] != (Pair{0, 0}) {
			t.Fatalf("path starts at %v", path[0])
		}
		if path[len(path)-1] != (Pair{len(a) - 1, len(b) - 1}) {
			t.Fatalf("path ends at %v", path[len(path)-1])
		}
		sum := 0.0
		for i, p := range path {
			sum += Base(a[p.X], b[p.Y])
			if i > 0 {
				dx, dy := p.X-path[i-1].X, p.Y-path[i-1].Y
				if dx < 0 || dy < 0 || dx > 1 || dy > 1 || (dx == 0 && dy == 0) {
					t.Fatalf("invalid step %v -> %v", path[i-1], p)
				}
			}
		}
		if math.Abs(sum-d) > 1e-9 {
			t.Fatalf("path base sum %v != distance %v", sum, d)
		}
	}
}

func TestAlignIntroExample(t *testing.T) {
	s1 := []float64{20, 20, 21, 21, 20, 20, 23, 23}
	s2 := []float64{20, 21, 20, 23}
	d, path := Align(s1, s2)
	if d != 0 {
		t.Fatalf("distance = %v, want 0", d)
	}
	// Every matched pair must be equal for a zero-distance alignment.
	for _, p := range path {
		if s1[p.X] != s2[p.Y] {
			t.Fatalf("pair %v matches unequal values", p)
		}
	}
}
