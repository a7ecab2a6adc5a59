package sequence

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestDatasetAdd(t *testing.T) {
	d := NewDataset()
	idx, err := d.Add(Sequence{ID: "a", Values: []float64{1, 2, 3}})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if idx != 0 {
		t.Fatalf("idx = %d, want 0", idx)
	}
	idx, err = d.Add(Sequence{ID: "b", Values: []float64{4}})
	if err != nil || idx != 1 {
		t.Fatalf("Add b: idx=%d err=%v", idx, err)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.ByID("a") != 0 || d.ByID("b") != 1 || d.ByID("zzz") != -1 {
		t.Fatalf("ByID lookups wrong: %d %d %d", d.ByID("a"), d.ByID("b"), d.ByID("zzz"))
	}
}

func TestDatasetAddErrors(t *testing.T) {
	d := NewDataset()
	if _, err := d.Add(Sequence{ID: "", Values: []float64{1}}); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := d.Add(Sequence{ID: "x", Values: nil}); err == nil {
		t.Error("empty values accepted")
	}
	if _, err := d.Add(Sequence{ID: "x", Values: []float64{1}}); err != nil {
		t.Fatalf("valid add rejected: %v", err)
	}
	if _, err := d.Add(Sequence{ID: "x", Values: []float64{2}}); err == nil {
		t.Error("duplicate id accepted")
	}
	// Dimension 2: values that are no whole number of points are refused
	// too.
	d = NewDatasetDim(2)
	for _, vals := range [][]float64{nil, {1}, {1, 2, 3}} {
		if _, err := d.Add(Sequence{ID: "a", Values: vals}); err == nil {
			t.Errorf("d=2: values %v accepted", vals)
		}
	}
	if _, err := d.Add(Sequence{ID: "", Values: []float64{1, 2}}); err == nil {
		t.Error("d=2: empty id accepted")
	}
	if _, err := d.Add(Sequence{ID: "a", Values: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add(Sequence{ID: "a", Values: []float64{3, 4}}); err == nil {
		t.Error("d=2: duplicate id accepted")
	}
}

func TestZeroValueDataset(t *testing.T) {
	var d Dataset
	if _, err := d.Add(Sequence{ID: "a", Values: []float64{1}}); err != nil {
		t.Fatalf("zero-value Add: %v", err)
	}
	if d.ByID("a") != 0 {
		t.Fatal("zero-value ByID failed")
	}
}

func TestRef(t *testing.T) {
	r := Ref{Seq: 2, Start: 3, End: 7}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if got := r.String(); got != "S_2[4:7]" {
		t.Fatalf("String = %q", got)
	}
	d := NewDataset()
	d.MustAdd(Sequence{ID: "a", Values: []float64{0, 1, 2, 3, 4, 5}})
	got := d.Slice(Ref{Seq: 0, Start: 2, End: 5})
	if !reflect.DeepEqual(got, []float64{2, 3, 4}) {
		t.Fatalf("Slice = %v", got)
	}
}

func TestStats(t *testing.T) {
	d := NewDataset()
	d.MustAdd(Sequence{ID: "a", Values: []float64{1, 2, 3}})
	d.MustAdd(Sequence{ID: "b", Values: []float64{-5, 10}})
	st := d.ComputeStats()
	if st.Sequences != 2 || st.TotalElements != 5 {
		t.Fatalf("counts wrong: %+v", st)
	}
	if st.MinLen != 2 || st.MaxLen != 3 {
		t.Fatalf("len range wrong: %+v", st)
	}
	if st.MinValue != -5 || st.MaxValue != 10 {
		t.Fatalf("value range wrong: %+v", st)
	}
	if math.Abs(st.AvgLen-2.5) > 1e-12 {
		t.Fatalf("AvgLen = %v", st.AvgLen)
	}
	if math.Abs(st.MeanValue-2.2) > 1e-12 {
		t.Fatalf("MeanValue = %v", st.MeanValue)
	}
	lo, hi := d.Bounds()
	mn, mx := lo[0], hi[0]
	if mn != -5 || mx != 10 {
		t.Fatalf("MinMax = %v %v", mn, mx)
	}
}

func TestStatsEmpty(t *testing.T) {
	d := NewDataset()
	st := d.ComputeStats()
	if st.Sequences != 0 || st.TotalElements != 0 {
		t.Fatalf("empty stats: %+v", st)
	}
	if d.AvgLen() != 0 {
		t.Fatal("empty AvgLen not 0")
	}
	lo, hi := d.Bounds()
	mn, mx := lo[0], hi[0]
	if mn != 0 || mx != 0 {
		t.Fatal("empty MinMax not (0,0)")
	}
}

func TestAllValues(t *testing.T) {
	d := NewDataset()
	d.MustAdd(Sequence{ID: "a", Values: []float64{3, 1}})
	d.MustAdd(Sequence{ID: "b", Values: []float64{2}})
	got := d.AllValues()
	if !reflect.DeepEqual(got, []float64{3, 1, 2}) {
		t.Fatalf("AllValues = %v, want every value in dataset order", got)
	}
	sort.Float64s(got)
	if vals := d.Values(0); vals[0] != 3 || vals[1] != 1 {
		t.Fatalf("sorting AllValues reordered the dataset's own values: %v", vals)
	}
}

func randomDataset(rng *rand.Rand, nSeq, maxLen int) *Dataset {
	d := NewDataset()
	for i := 0; i < nSeq; i++ {
		n := 1 + rng.Intn(maxLen)
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = math.Round(rng.NormFloat64()*1000) / 100
		}
		d.MustAdd(Sequence{ID: "s" + string(rune('a'+i%26)) + string(rune('0'+i/26)), Values: vals})
	}
	return d
}

// randomPointDataset is dim-dimensional integer walks, point-major: 2 to
// maxLen points, every coordinate from a start in [0, 10) by steps of -1, 0
// and 1.
func randomPointDataset(rng *rand.Rand, nSeq, maxLen, dim int) *Dataset {
	d := NewDatasetDim(dim)
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
		d.MustAdd(Sequence{ID: "m" + strconv.Itoa(i), Values: vals})
	}
	return d
}

// datasetsEqual reports whether a and b hold the same dimension and the
// same sequences: ids, and every value bit for bit.
func datasetsEqual(a, b *Dataset) bool {
	if a.Dim() != b.Dim() || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Seq(i).ID != b.Seq(i).ID {
			return false
		}
		if !reflect.DeepEqual(a.Seq(i).Values, b.Seq(i).Values) {
			return false
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ds []*Dataset
	for trial := 0; trial < 20; trial++ {
		ds = append(ds, randomDataset(rng, 1+rng.Intn(10), 30))
	}
	rng = rand.New(rand.NewSource(501))
	for trial := 0; trial < 10; trial++ {
		dim := 1 + rng.Intn(4)
		ds = append(ds, randomPointDataset(rng, 1+rng.Intn(5), 20, dim))
	}
	for trial, d := range ds {
		var buf bytes.Buffer
		if err := d.WriteBinary(&buf); err != nil {
			t.Fatalf("WriteBinary: %v", err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("ReadBinary: %v", err)
		}
		if !datasetsEqual(d, got) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	for _, in := range []string{"NOTMAGIC\x00\x00\x00\x00", "XXXXXXXXgarbage"} {
		if _, err := ReadBinary(strings.NewReader(in)); err != ErrBadMagic {
			t.Fatalf("%q: err = %v, want ErrBadMagic", in, err)
		}
	}
}

func TestBinaryTruncated(t *testing.T) {
	d := NewDataset()
	d.MustAdd(Sequence{ID: "a", Values: []float64{1, 2, 3}})
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut += 3 {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d silently accepted", cut)
		}
	}
	// A length that promises more values than the stream holds — up to the
	// largest the field can carry — is the same short read, not an
	// allocation of whatever the length says.
	const nAt = 8 + 4 + 2 + len("a") // magic, count, idLen, id
	for _, n := range []uint32{4, readChunk + 1, math.MaxUint32} {
		binary.LittleEndian.PutUint32(full[nAt:], n)
		if _, err := ReadBinary(bytes.NewReader(full)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%d values declared, 3 present: err = %v, want io.ErrUnexpectedEOF", n, err)
		}
	}

	// Dimension 2 counts points, and a zero dimension, whose points would
	// never run the stream dry, is refused outright.
	vec := NewDatasetDim(2)
	vec.MustAdd(Sequence{ID: "seed", Values: []float64{1, 2, 2.5, -3}})
	buf.Reset()
	if err := vec.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	const pAt = 8 + 2 + 4 + 2 + len("seed") // magic, dim, count, idLen, id
	for _, n := range []uint32{3, 1 << 20, math.MaxUint32} {
		binary.LittleEndian.PutUint32(raw[pAt:], n)
		if _, err := ReadBinary(bytes.NewReader(raw)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%d points declared, 2 present: err = %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
	binary.LittleEndian.PutUint16(raw[8:], 0)
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Error("points of dimension 0 accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	d := NewDataset()
	d.MustAdd(Sequence{ID: "stock-1", Values: []float64{10.5, 11.25, 10.75}})
	for _, d := range []*Dataset{d, randomPointDataset(rand.New(rand.NewSource(503)), 3, 15, 2)} {
		path := filepath.Join(t.TempDir(), "data.bin")
		if err := d.SaveFile(path); err != nil {
			t.Fatalf("SaveFile: %v", err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("LoadFile: %v", err)
		}
		if !datasetsEqual(d, got) {
			t.Fatalf("d=%d: file round trip mismatch", d.Dim())
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := NewDataset()
	d.MustAdd(Sequence{ID: "a", Values: []float64{1.5, -2, 0.001}})
	d.MustAdd(Sequence{ID: "b", Values: []float64{42}})
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !datasetsEqual(d, got) {
		t.Fatalf("csv round trip mismatch:\n%s", buf.String())
	}
}

func TestCSVComments(t *testing.T) {
	in := "# header\n\na, 1, 2\n"
	d, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if d.Len() != 1 || d.Seq(0).ID != "a" {
		t.Fatalf("parsed wrong: %+v", d.Seq(0))
	}
}

func TestCSVErrors(t *testing.T) {
	for _, in := range []string{"a\n", "a,xyz\n", ",1\n"} {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
	d := NewDataset()
	d.MustAdd(Sequence{ID: "bad,id", Values: []float64{1}})
	if err := d.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Error("comma in id accepted by WriteCSV")
	}
}

// Property: binary round trip preserves arbitrary float64 payloads exactly,
// including negative zero and extreme magnitudes.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(vals []float64, seed int64) bool {
		if len(vals) == 0 {
			vals = []float64{0}
		}
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = 0 // NaN != NaN would fail DeepEqual for the wrong reason
			}
		}
		d := NewDataset()
		d.MustAdd(Sequence{ID: "q", Values: vals})
		var buf bytes.Buffer
		if err := d.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return datasetsEqual(d, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAddRejectsNonFinite(t *testing.T) {
	for _, dim := range []int{1, 2} {
		d := NewDatasetDim(dim)
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			vals := make([]float64, 2*dim)
			vals[dim+dim/2] = v
			if _, err := d.Add(Sequence{ID: "bad", Values: vals}); err == nil {
				t.Errorf("d=%d: %v accepted", dim, v)
			}
		}
		if d.Len() != 0 {
			t.Errorf("d=%d: rejected sequences were stored", dim)
		}
	}
}

// WriteBinary's bytes are pinned: the digest is of what the per-value
// binary.Write encoder this one replaced wrote for the same dataset — values
// of every kind, an id longer than a byte counts, a sequence longer than two
// conversion buffers.
func TestWriteBinaryGolden(t *testing.T) {
	d := NewDataset()
	d.MustAdd(Sequence{ID: "a", Values: []float64{1, -2.5, math.Copysign(0, -1), 5e-324, math.MaxFloat64}})
	long := make([]float64, 2*ioChunk+3)
	for i := range long {
		long[i] = float64(i*i%1009) / 7
	}
	d.MustAdd(Sequence{ID: "long-" + strings.Repeat("x", 300), Values: long})
	d.MustAdd(Sequence{ID: "z", Values: []float64{42}})
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "e3b1f445953acaf3de6375f71b18a213c81cba323153f90e383e7c170c402852"
	if sum := sha256.Sum256(buf.Bytes()); buf.Len() != 65945 || hex.EncodeToString(sum[:]) != want {
		t.Fatalf("WriteBinary wrote %d bytes with sha256 %x, want 65945 bytes with %s", buf.Len(), sum, want)
	}

	// Dimension 3, against the per-point encoder of the vector format.
	vec := NewDatasetDim(3)
	vec.MustAdd(Sequence{ID: "p", Values: []float64{1, -2.5, math.Copysign(0, -1), 5e-324, math.MaxFloat64, 0}})
	long = make([]float64, 0, 3*3000) // more coordinates than two conversion buffers
	for i := 0; i < 3000; i++ {
		long = append(long, float64(i*i%1009)/7, float64(i), -float64(i%13)/3)
	}
	vec.MustAdd(Sequence{ID: "long-" + strings.Repeat("x", 300), Values: long})
	vec.MustAdd(Sequence{ID: "z", Values: []float64{4, 2, 0}})
	buf.Reset()
	if err := vec.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	const wantVec = "d87c408f58e24b5e23a01f9a563fdfe0c7d80fb551ecf026e1ff7129f7bd08ac"
	if sum := sha256.Sum256(buf.Bytes()); buf.Len() != 72411 || hex.EncodeToString(sum[:]) != wantVec {
		t.Fatalf("d=3: WriteBinary wrote %d bytes with sha256 %x, want 72411 bytes with %s", buf.Len(), sum, wantVec)
	}
}

// longID is one byte longer than the format's 16-bit id length carries.
var longID = strings.Repeat("y", math.MaxUint16+1)

// withLongID appends a sequence named longID to d behind Add's back, which
// refuses it: what WriteBinary must still refuse to write.
func withLongID(d *Dataset) *Dataset {
	d.seqs = append(d.seqs, Sequence{ID: longID, Values: make([]float64, d.Dim())})
	return d
}

// An id the format's 16-bit length cannot carry is refused, not written with
// a wrapped length, in either format; a dataset Add kept it out of writes
// and reads back without it.
func TestWriteBinaryLongID(t *testing.T) {
	for _, dim := range []int{1, 2} {
		d := NewDatasetDim(dim)
		d.MustAdd(Sequence{ID: "fine", Values: make([]float64, dim)})
		if _, err := d.Add(Sequence{ID: longID, Values: make([]float64, dim)}); err == nil {
			t.Fatalf("d=%d: id of %d bytes accepted", dim, len(longID))
		}
		var buf bytes.Buffer
		if err := d.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if back, err := ReadBinary(&buf); err != nil || !datasetsEqual(back, d) {
			t.Fatalf("d=%d: read back %v, %v; want the one sequence added", dim, back, err)
		}
		if err := withLongID(d).WriteBinary(io.Discard); err == nil || !strings.Contains(err.Error(), "too long") {
			t.Fatalf("d=%d: id of %d bytes: err = %v, want a too-long error", dim, len(longID), err)
		}
	}
}

// Add refuses an id the dataset file cannot hold, so the dataset never
// holds one Save would fail on; the longest that fits is accepted.
func TestAddRefusesLongID(t *testing.T) {
	d := NewDataset()
	if _, err := d.Add(Sequence{ID: longID, Values: []float64{1}}); err == nil {
		t.Fatalf("id of %d bytes accepted", len(longID))
	}
	if _, err := d.Add(Sequence{ID: longID[1:], Values: []float64{1}}); err != nil {
		t.Fatalf("id of %d bytes: %v", len(longID)-1, err)
	}
}

// A save that fails leaves the file it would have replaced as it was, and
// no scratch file beside it.
func TestSaveFileFailureKeepsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.twdb")
	d := NewDataset()
	d.MustAdd(Sequence{ID: "kept", Values: []float64{1, 2, 3}})
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	bad := NewDataset()
	bad.MustAdd(Sequence{ID: "new", Values: []float64{4}})
	if err := withLongID(bad).SaveFile(path); err == nil {
		t.Fatal("saved an id the format cannot hold")
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("after the failed save: %v", err)
	}
	if !datasetsEqual(d, got) {
		t.Fatal("the failed save changed the saved dataset")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory after the failed save: %v, %v; want only the dataset", entries, err)
	}
}

// Sequences whose lengths sit on either side of every size the reader and
// writer work in pieces of — the conversion buffer, the first allocation, its
// doubling, and at dimension 2 and 7 the first allocation in whole points —
// come back value for value, and a stream cut among the values of the last
// of them is a wrapped io.ErrUnexpectedEOF.
func TestBinaryChunkBoundaries(t *testing.T) {
	for _, dim := range []int{1, 2, 7} {
		sizes := []int{readChunk / dim} // in points
		if dim == 1 {
			sizes = []int{ioChunk, readChunk, 2 * readChunk}
		}
		for _, size := range sizes {
			for n := size - 1; n <= size+1; n++ {
				vals := make([]float64, n*dim)
				for i := range vals {
					vals[i] = float64(i%977) - 1/float64(i+1)
				}
				d := NewDatasetDim(dim)
				d.MustAdd(Sequence{ID: "first", Values: vals[:dim]})
				d.MustAdd(Sequence{ID: "edge", Values: vals})
				var buf bytes.Buffer
				if err := d.WriteBinary(&buf); err != nil {
					t.Fatal(err)
				}
				raw := buf.Bytes()
				got, err := ReadBinary(bytes.NewReader(raw))
				if err != nil || !datasetsEqual(d, got) {
					t.Fatalf("d=%d, %d points: round trip differs (err = %v)", dim, n, err)
				}
				for _, cut := range []int{len(raw) - 1, len(raw) - 8*dim, len(raw) - 8*min(ioChunk, dim*(n-1)), len(raw) - 8*dim*(n-1)} {
					if _, err := ReadBinary(bytes.NewReader(raw[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
						t.Fatalf("d=%d, %d points, stream cut at %d of %d: err = %v, want io.ErrUnexpectedEOF", dim, n, cut, len(raw), err)
					}
				}
			}
		}
	}
}

// BenchmarkDatasetBinaryIO writes and reads back the benchmark's database
// shapes: as /d1 the scalar one, 1090 sequences of 232 values, and as /d2
// the trajectory one, 800 sequences of 200 two-dimensional points.
func BenchmarkDatasetBinaryIO(b *testing.B) {
	for _, c := range []struct {
		dim, seqs, points int
		seed              int64
		id                string
	}{{1, 1090, 232, 41, "stock-%d"}, {2, 800, 200, 523, "traj-%05d"}} {
		rng := rand.New(rand.NewSource(c.seed))
		d := NewDatasetDim(c.dim)
		for i := 0; i < c.seqs; i++ {
			vals := make([]float64, c.dim*c.points)
			for j := range vals {
				vals[j] = rng.NormFloat64()
			}
			d.MustAdd(Sequence{ID: fmt.Sprintf(c.id, i), Values: vals})
		}
		b.Run("d"+strconv.Itoa(c.dim), func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := d.WriteBinary(&buf); err != nil {
					b.Fatal(err)
				}
				if _, err := ReadBinary(&buf); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(8 * c.dim * d.TotalElements()))
		})
	}
}

// TestBoundsPerDimension holds Bounds, at dimension 1 and 2, to the
// value-by-value fold over every coordinate it replaces, bit for bit: on
// random data with signed zeros, which min and max tell apart, and on
// zeros of one sign with one of the other sign at each position.
func TestBoundsPerDimension(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(29))
	for _, dim := range []int{1, 2} {
		var cases [][][]float64
		for i := 0; i < 4; i++ {
			var seqs [][]float64
			for j := 0; j < 5; j++ {
				vals := make([]float64, dim*(1+rng.Intn(40)))
				for k := range vals {
					switch rng.Intn(2 + 2*(i%2)) {
					case 0:
						vals[k] = negZero
					case 1:
						vals[k] = 0
					default:
						vals[k] = rng.NormFloat64() * 100
					}
				}
				seqs = append(seqs, vals)
			}
			cases = append(cases, seqs)
		}
		for _, zero := range []float64{0, negZero} {
			for at := 0; at < 9*dim; at++ {
				vals := make([]float64, 9*dim)
				for k := range vals {
					vals[k] = zero
				}
				vals[at] = -zero
				cases = append(cases, [][]float64{vals})
			}
		}
		for ci, seqs := range cases {
			d := NewDatasetDim(dim)
			wantLo, wantHi := slices.Clone(seqs[0][:dim]), slices.Clone(seqs[0][:dim])
			for i, vals := range seqs {
				d.MustAdd(Sequence{ID: fmt.Sprint(i), Values: vals})
				for j, v := range vals {
					wantLo[j%dim], wantHi[j%dim] = min(wantLo[j%dim], v), max(wantHi[j%dim], v)
				}
			}
			lo, hi := d.Bounds()
			for k := 0; k < dim; k++ {
				if math.Float64bits(lo[k]) != math.Float64bits(wantLo[k]) || math.Float64bits(hi[k]) != math.Float64bits(wantHi[k]) {
					t.Errorf("d=%d case %d coordinate %d: bounds [%v, %v], want [%v, %v]", dim, ci, k, lo[k], hi[k], wantLo[k], wantHi[k])
				}
			}
		}
	}
}
