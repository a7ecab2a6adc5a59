package categorize

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

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
