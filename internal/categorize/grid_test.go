package categorize

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"twsearch/internal/dtw"
	"twsearch/internal/sequence"
)

// A grid small enough for a lookup table and the same grid with the map
// alone encode alike, refuse the same unseen point and write the same file;
// a grid too large for the table (41³ cells) goes by the map; and the texts
// a fit hands to the tree build are the ones Encode makes at open.
func TestGridTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(521))
	data := sequence.NewDatasetDim(3)
	for i := 0; i < 6; i++ {
		vals := make([]float64, 3*60)
		for j := range vals {
			vals[j] = rng.NormFloat64() // no ties: every category asked for is made
		}
		if _, err := data.Add(sequence.Sequence{ID: fmt.Sprintf("m%d", i), Values: vals}); err != nil {
			t.Fatal(err)
		}
	}
	for _, cats := range []int{5, 41} {
		grid, fitted, err := FitGrid(data, KindMaxEntropy, cats)
		if err != nil {
			t.Fatal(err)
		}
		if (grid.table != nil) != (cats == 5) {
			t.Fatalf("%d categories per dimension: table of %d entries", cats, len(grid.table))
		}
		byMap := *grid
		byMap.table = nil
		for i := 0; i < data.Len(); i++ {
			want, err := grid.Encode(data.Values(i))
			if err != nil {
				t.Fatal(err)
			}
			reencoded, err := byMap.Encode(data.Values(i))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fitted[i], want) || !reflect.DeepEqual(reencoded, want) {
				t.Fatalf("%d categories: sequence %d: the fit's text, the map's and the table's differ", cats, i)
			}
		}
		unseen := []float64{1e9, -1e9, 1e9}
		if _, err := grid.Encode(unseen); err == nil {
			t.Errorf("%d categories: a point in no fitted cell was encoded", cats)
		}
		if _, err := byMap.Encode(unseen); err == nil {
			t.Errorf("%d categories: a point in no fitted cell was encoded by the map", cats)
		}
		var a, b bytes.Buffer
		if err := errors.Join(grid.Write(&a), byMap.Write(&b)); err != nil {
			t.Fatal(err)
		}
		reread, err := ReadGrid(bytes.NewReader(a.Bytes()))
		if err != nil || !bytes.Equal(a.Bytes(), b.Bytes()) || (reread.table != nil) != (grid.table != nil) {
			t.Fatalf("%d categories: grid files differ between table and map, or the table is lost on reading (err = %v)", cats, err)
		}
	}
}

// schemeBytes is the scheme file of s.
func schemeBytes(t *testing.T, s *Scheme) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestFitOnceMatchesFit: a build categorizes each value once — FitTexts at
// dimension 1, FitGrid above it, each counting from the symbols it encoded
// — and must write the scheme file Fit writes, which counts by categorizing
// every value again, for every kind: byte for byte, with ties, a -0 beside
// a +0 and the extremes in several sequences; and FitTexts must hand the
// tree build the texts Encode makes. At dimension 2, each dimension of the
// grid is Fit's scheme of that coordinate.
func TestFitOnceMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(523))
	values := sequence.NewDataset()
	points := sequence.NewDatasetDim(2)
	for i := 0; i < 5; i++ {
		vals := make([]float64, 40+i)
		for j := range vals {
			vals[j] = float64(rng.Intn(9)-4) / 2
		}
		vals[i] = math.Copysign(0, -1)
		pts := make([]float64, 0, 2*len(vals))
		for j, v := range vals {
			pts = append(pts, v, vals[(j+7)%len(vals)])
		}
		values.MustAdd(sequence.Sequence{ID: fmt.Sprintf("v%d", i), Values: vals})
		points.MustAdd(sequence.Sequence{ID: fmt.Sprintf("p%d", i), Values: pts})
	}
	for _, kind := range []Kind{KindEqualLength, KindMaxEntropy, KindKMeans, KindIdentity} {
		want, err := Fit(kind, values.AllValues(), 6, 20)
		if err != nil {
			t.Fatal(err)
		}
		got, texts, err := FitTexts(values, kind, 6, 20)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(schemeBytes(t, got), schemeBytes(t, want)) {
			t.Errorf("%s: FitTexts writes another scheme file than Fit", kind)
		}
		for i := range texts {
			if !reflect.DeepEqual(texts[i], want.Encode(values.Values(i))) {
				t.Errorf("%s: sequence %d: FitTexts's text is not Encode's", kind, i)
			}
		}

		grid, _, err := FitGrid(points, kind, 6)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			var col []float64
			for i := 0; i < points.Len(); i++ {
				v := points.Values(i)
				for j := k; j < len(v); j += 2 {
					col = append(col, v[j])
				}
			}
			want, err := Fit(kind, col, 6, 20)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(schemeBytes(t, grid.dims[k]), schemeBytes(t, want)) {
				t.Errorf("%s: dimension %d of the grid is not Fit's scheme of that coordinate", kind, k)
			}
		}
	}
	if _, _, err := FitTexts(points, KindMaxEntropy, 6, 20); err == nil {
		t.Error("FitTexts fitted a dataset of dimension 2")
	}
}

// randomPointDataset is dim-dimensional integer walks, point-major: 2 to
// maxLen points, every coordinate from a start in [0, 10) by steps of -1, 0
// and 1.
func randomPointDataset(rng *rand.Rand, nSeq, maxLen, dim int) *sequence.Dataset {
	d := sequence.NewDatasetDim(dim)
	for i := 0; i < nSeq; i++ {
		n := 2 + rng.Intn(maxLen-1)
		v := make([]float64, dim)
		for k := range v {
			v[k] = float64(rng.Intn(10))
		}
		vals := make([]float64, 0, n*dim)
		for j := 0; j < n; j++ {
			for k := range v {
				v[k] += float64(rng.Intn(3) - 1)
				vals = append(vals, v[k])
			}
		}
		d.MustAdd(sequence.Sequence{ID: fmt.Sprintf("m%d", i), Values: vals})
	}
	return d
}

// Every point lies in the box of the cell it encodes to, at base distance
// zero from it.
func TestFitGridBoxesContainPoints(t *testing.T) {
	data := randomPointDataset(rand.New(rand.NewSource(401)), 5, 30, 3)
	grid, _, err := FitGrid(data, KindMaxEntropy, 4)
	if err != nil {
		t.Fatal(err)
	}
	if grid.NumCells() == 0 {
		t.Fatal("no cells")
	}
	for i := 0; i < data.Len(); i++ {
		vals := data.Values(i)
		syms, err := grid.Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		for j, sym := range syms {
			p, box := vals[3*j:3*j+3], grid.Box(sym)
			for k := range p {
				if p[k] < box.Lo[k] || p[k] > box.Hi[k] {
					t.Fatalf("point %v outside its cell box %+v", p, box)
				}
			}
			if d := dtw.BaseBox(p, box); d != 0 {
				t.Fatalf("BaseBox of member point = %v", d)
			}
		}
	}
}

func TestEncodeUnseenCellFails(t *testing.T) {
	// Only the diagonal cells (low,low) and (high,high) are observed; the
	// off-diagonal combination (low,high) has no cell symbol.
	d := sequence.NewDatasetDim(2)
	d.MustAdd(sequence.Sequence{ID: "a", Values: []float64{1, 1, 10, 10}})
	grid, _, err := FitGrid(d, KindEqualLength, 2)
	if err != nil {
		t.Fatal(err)
	}
	if grid.NumCells() != 2 {
		t.Fatalf("cells = %d, want 2", grid.NumCells())
	}
	if _, err := grid.Encode([]float64{1, 10}); err == nil {
		t.Error("point in unseen cell encoded")
	}
}

// A grid written and read back encodes alike and keeps every box; garbage
// is refused.
func TestGridRoundTrip(t *testing.T) {
	data := randomPointDataset(rand.New(rand.NewSource(507)), 4, 25, 3)
	grid, _, err := FitGrid(data, KindMaxEntropy, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := grid.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGrid(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCells() != grid.NumCells() {
		t.Fatalf("cells = %d, want %d", got.NumCells(), grid.NumCells())
	}
	for i := 0; i < data.Len(); i++ {
		a, err := grid.Encode(data.Values(i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Encode(data.Values(i))
		if err != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("encoding differs for sequence %d (err = %v)", i, err)
		}
	}
	for s := 0; s < grid.NumCells(); s++ {
		if a, b := grid.Box(Symbol(s)), got.Box(Symbol(s)); !reflect.DeepEqual(a, b) {
			t.Fatalf("box %d differs", s)
		}
	}
	if _, err := ReadGrid(bytes.NewReader([]byte("XXXXXXXXjunkjunk"))); err == nil {
		t.Fatal("garbage grid accepted")
	}
	// Cells come in the ascending key order Write puts them in. Out of
	// order, or a key twice, a stream would read back as a grid that writes
	// other bytes; it is refused.
	cells := 8 + 2 + 4 // magic, dimension, then past the schemes: the cell count
	for _, s := range grid.dims {
		cells += 8 + 1 + 4 + 40*s.NumCategories()
	}
	var raw bytes.Buffer
	if err := grid.Write(&raw); err != nil {
		t.Fatal(err)
	}
	first, second := raw.Bytes()[cells:cells+12], raw.Bytes()[cells+12:cells+24]
	swapped, repeated := bytes.Clone(raw.Bytes()), bytes.Clone(raw.Bytes())
	copy(swapped[cells:], second)
	copy(swapped[cells+12:], first)
	copy(repeated[cells+12:], first[:8])
	for name, b := range map[string][]byte{"swapped": swapped, "repeated": repeated} {
		if _, err := ReadGrid(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "ascending") {
			t.Errorf("%s cells: err = %v, want out of ascending order", name, err)
		}
	}
	// The symbols name the cells one to one: cells sharing a symbol would
	// all be bounded by one cell's box, which is no lower bound for the
	// others, and a symbol outside the table has no box.
	n := grid.NumCells()
	for name, sym := range map[string]int32{"shared": int32(n - 1), "negative": -1, "past the table": int32(n)} {
		b := bytes.Clone(raw.Bytes())
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(b[cells+12*i+8:], uint32(sym))
		}
		if _, err := ReadGrid(bytes.NewReader(b)); err == nil {
			t.Errorf("%s symbol: a grid of %d cells all naming symbol %d was accepted", name, n, sym)
		}
	}
}
