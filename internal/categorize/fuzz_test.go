package categorize

import (
	"bytes"
	"testing"

	"twsearch/internal/sequence"
)

// FuzzReadScheme must never panic; accepted schemes must encode values into
// categories that contain them within their boundary range.
func FuzzReadScheme(f *testing.F) {
	s, err := Fit(KindMaxEntropy, []float64{1, 2, 3, 4, 5}, 3, 0)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("TWCATSC1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadScheme(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.NumCategories() == 0 {
			t.Fatal("a scheme of zero categories was accepted")
		}
		// Symbol must be total and in range for any probe value.
		for _, v := range []float64{-1e18, -1, 0, 1, 1e18} {
			sym := got.Symbol(v)
			if int(sym) < 0 || int(sym) >= got.NumCategories() {
				t.Fatalf("Symbol(%v) = %d out of range", v, sym)
			}
		}
	})
}

// FuzzReadGrid must never panic either: for any input the reader returns
// an error, or a grid of at least one cell whose every symbol names exactly
// one cell and has a box of the grid's dimension, and which encodes the
// points of the seed's data — into symbols that have boxes, or refusing an
// unfitted cell — without panicking.
func FuzzReadGrid(f *testing.F) {
	data := sequence.NewDatasetDim(2)
	vals := []float64{0, 0, 1, 3, 2, 1, 5, 5, 3, 0, 4, 2}
	if _, err := data.Add(sequence.Sequence{ID: "a", Values: vals}); err != nil {
		f.Fatal(err)
	}
	g, _, err := FitGrid(data, KindMaxEntropy, 2)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(GridMagic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := ReadGrid(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if got.NumCells() == 0 {
			t.Fatal("a grid of no cells was accepted")
		}
		owners := make([]int, got.NumCells())
		for _, sym := range got.cells {
			if sym < 0 || int(sym) >= len(owners) {
				t.Fatalf("a cell names symbol %d of %d", sym, len(owners))
			}
			owners[sym]++
		}
		for sym := 0; sym < got.NumCells(); sym++ {
			if owners[sym] != 1 {
				t.Fatalf("symbol %d names %d cells", sym, owners[sym])
			}
			if box := got.Box(Symbol(sym)); len(box.Lo) != got.Dim() || len(box.Hi) != got.Dim() {
				t.Fatalf("symbol %d: a box of %d and %d bounds in a grid of dimension %d", sym, len(box.Lo), len(box.Hi), got.Dim())
			}
		}
		syms, err := got.Encode(vals)
		if err != nil {
			return
		}
		for i, sym := range syms {
			if sym < 0 || int(sym) >= got.NumCells() {
				t.Fatalf("point %d: symbol %d of %d cells", i, sym, got.NumCells())
			}
		}
	})
}

// FuzzFit derives a value set and category count from fuzz input and checks
// the fitting invariants for every method, and that the maximum-entropy fit
// writes the scheme its sort-based reference does — on the values as they
// are, and repeated at several scales and signs until the fit selects
// instead of sorting.
func FuzzFit(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 200}, uint8(4))
	f.Add([]byte{128, 127, 128, 129, 0, 255}, uint8(199))
	f.Fuzz(func(t *testing.T, data []byte, c uint8) {
		if len(data) == 0 {
			return
		}
		if len(data) > 64 {
			data = data[:64]
		}
		vals := make([]float64, len(data))
		for i, b := range data {
			vals[i] = float64(int(b)-128) / 3
		}
		count := int(c)%16 + 1
		sameAsReference(t, "fuzz", vals, count)
		many := make([]float64, 2*selectMinValues)
		for i := range many {
			round := i / len(vals)
			many[i] = vals[i%len(vals)] * float64(1+round%5) * float64(1-round%3) // ×0 and ×-1 among them: zeros of both signs
		}
		sameAsReference(t, "fuzz, repeated", many, int(c)+1)
		for _, kind := range []Kind{KindEqualLength, KindMaxEntropy, KindKMeans, KindIdentity} {
			s, err := Fit(kind, vals, count, 8)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			total := 0
			for i := 0; i < s.NumCategories(); i++ {
				cat := s.Category(i)
				total += cat.Count
				if cat.ObsLo > cat.ObsHi {
					t.Fatalf("%s: inverted observed interval %+v", kind, cat)
				}
			}
			if total != len(vals) {
				t.Fatalf("%s: counts %d != %d values", kind, total, len(vals))
			}
			for _, v := range vals {
				iv := s.Interval(s.Symbol(v))
				if v < iv.Lo || v > iv.Hi {
					t.Fatalf("%s: value %v outside its interval %+v", kind, v, iv)
				}
			}
		}
	})
}
