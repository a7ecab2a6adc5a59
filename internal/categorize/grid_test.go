package categorize

import (
	"bytes"
	"errors"
	"fmt"
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
