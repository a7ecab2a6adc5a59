package sequence

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// FuzzReadBinary must never panic — or allocate what a lying length asks
// for — on arbitrary bytes of either format, and anything it accepts must
// re-serialize to an equal dataset: the same dimension, ids and values.
func FuzzReadBinary(f *testing.F) {
	good := NewDataset()
	good.MustAdd(Sequence{ID: "seed", Values: []float64{1, 2.5, -3}})
	var buf bytes.Buffer
	if err := good.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("TWSEQDB1"))
	f.Add([]byte{})
	vec := NewDatasetDim(2)
	vec.MustAdd(Sequence{ID: "seed", Values: []float64{1, 2.5, -3, 4}})
	buf.Reset()
	if err := vec.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// 46 bytes that declare 0xFF7F0003 points: 34 GB to a reader that sizes
	// its storage from the stream.
	huge := append([]byte(nil), buf.Bytes()[:8+2+4+2+len("seed")]...)
	huge = binary.LittleEndian.AppendUint32(huge, 0xFF7F0003)
	f.Add(append(huge, make([]byte, 46-len(huge))...))
	f.Add([]byte("TWVECDB1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := d.WriteBinary(&out); err != nil {
			t.Fatalf("accepted dataset failed to serialize: %v", err)
		}
		d2, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("round trip of accepted dataset failed: %v", err)
		}
		if !datasetsEqual(d2, d) {
			t.Fatalf("round trip changed the dataset: %d×%d vs %d×%d", d2.Len(), d2.Dim(), d.Len(), d.Dim())
		}
	})
}

// FuzzReadCSV must never panic and must only accept lines it can re-emit.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,1,2,3\nb,4\n")
	f.Add("# comment\n\nx, 1.5 , -2e3\n")
	f.Add(",,,")
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ReadCSV(strings.NewReader(s))
		if err != nil {
			return
		}
		total := 0
		for i := 0; i < d.Len(); i++ {
			total += len(d.Values(i))
			if d.Seq(i).ID == "" {
				t.Fatal("accepted empty id")
			}
		}
		if d.TotalElements() != total {
			t.Fatal("TotalElements inconsistent")
		}
	})
}
