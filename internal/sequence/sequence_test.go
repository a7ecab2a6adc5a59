package sequence

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

func datasetsEqual(a, b *Dataset) bool {
	if a.Len() != b.Len() {
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
	for trial := 0; trial < 20; trial++ {
		d := randomDataset(rng, 1+rng.Intn(10), 30)
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
	if _, err := ReadBinary(strings.NewReader("NOTMAGIC\x00\x00\x00\x00")); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
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
}

func TestFileRoundTrip(t *testing.T) {
	d := NewDataset()
	d.MustAdd(Sequence{ID: "stock-1", Values: []float64{10.5, 11.25, 10.75}})
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := d.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if !datasetsEqual(d, got) {
		t.Fatal("file round trip mismatch")
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
	d := NewDataset()
	if _, err := d.Add(Sequence{ID: "nan", Values: []float64{1, math.NaN()}}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := d.Add(Sequence{ID: "inf", Values: []float64{math.Inf(1)}}); err == nil {
		t.Error("+Inf accepted")
	}
	if _, err := d.Add(Sequence{ID: "ninf", Values: []float64{math.Inf(-1)}}); err == nil {
		t.Error("-Inf accepted")
	}
	if d.Len() != 0 {
		t.Error("rejected sequences were stored")
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
}

// longID is one byte longer than the format's 16-bit id length carries.
var longID = strings.Repeat("y", math.MaxUint16+1)

// withLongID appends a sequence named longID to d behind Add's back, which
// refuses it: what WriteBinary must still refuse to write.
func withLongID(d *Dataset) *Dataset {
	d.seqs = append(d.seqs, Sequence{ID: longID, Values: []float64{2}})
	return d
}

// An id the format's 16-bit length cannot carry is refused, not written with
// a wrapped length.
func TestWriteBinaryLongID(t *testing.T) {
	d := NewDataset()
	d.MustAdd(Sequence{ID: "fine", Values: []float64{1}})
	if err := withLongID(d).WriteBinary(io.Discard); err == nil || !strings.Contains(err.Error(), "too long") {
		t.Fatalf("id of %d bytes: err = %v, want a too-long error", math.MaxUint16+1, err)
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
// doubling — come back value for value, and a stream cut among the values of
// the last of them is a wrapped io.ErrUnexpectedEOF.
func TestBinaryChunkBoundaries(t *testing.T) {
	for _, size := range []int{ioChunk, readChunk, 2 * readChunk} {
		for n := size - 1; n <= size+1; n++ {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(i%977) - 1/float64(i+1)
			}
			d := NewDataset()
			d.MustAdd(Sequence{ID: "first", Values: []float64{7}})
			d.MustAdd(Sequence{ID: "edge", Values: vals})
			var buf bytes.Buffer
			if err := d.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			got, err := ReadBinary(bytes.NewReader(raw))
			if err != nil || !datasetsEqual(d, got) {
				t.Fatalf("%d values: round trip differs (err = %v)", n, err)
			}
			for _, cut := range []int{len(raw) - 1, len(raw) - 8, len(raw) - 8*min(ioChunk, n-1), len(raw) - 8*(n-1)} {
				if _, err := ReadBinary(bytes.NewReader(raw[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("%d values, stream cut at %d of %d: err = %v, want io.ErrUnexpectedEOF", n, cut, len(raw), err)
				}
			}
		}
	}
}

// BenchmarkDatasetBinaryIO writes and reads back the benchmark's scalar
// database shape: 1090 sequences of 232 values.
func BenchmarkDatasetBinaryIO(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	d := NewDataset()
	for i := 0; i < 1090; i++ {
		vals := make([]float64, 232)
		for j := range vals {
			vals[j] = rng.NormFloat64()
		}
		d.MustAdd(Sequence{ID: "stock-" + strconv.Itoa(i), Values: vals})
	}
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
	b.SetBytes(int64(8 * d.TotalElements()))
}
