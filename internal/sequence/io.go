package sequence

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"twsearch/internal/storage"
)

// Binary dataset formats. A dataset of dimension 1 is written as
//
//	magic   [8]byte  "TWSEQDB1"
//	count   uint32   number of sequences
//	per sequence:
//	  idLen  uint16
//	  id     [idLen]byte
//	  n      uint32   number of points
//	  values [n]float64, little endian
//
// and one of dimension d > 1 as
//
//	magic   [8]byte  "TWVECDB1"
//	dim     uint16
//	count   uint32
//	per sequence: idLen uint16, id, n uint32, n*dim float64 (point-major)
//
// ReadBinary reads both. The formats are deliberately flat: datasets are
// read fully into memory; the disk-resident structure is the suffix-tree
// index, not the raw data.

var (
	binaryMagic = [8]byte{'T', 'W', 'S', 'E', 'Q', 'D', 'B', '1'}
	vectorMagic = [8]byte{'T', 'W', 'V', 'E', 'C', 'D', 'B', '1'}
)

// ErrBadMagic reports that a file is not a twsearch binary dataset.
var ErrBadMagic = errors.New("sequence: bad magic, not a TWSEQDB1 or TWVECDB1 file")

// ioChunk is how many values cross a stream in one piece: the size of the
// byte buffer WriteBinary and ReadBinary convert through.
const ioChunk = 1 << 12

// WriteBinary writes the dataset in the binary format of its dimension.
func (d *Dataset) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 8*ioChunk)
	if dim := d.Dim(); dim == 1 {
		buf = append(buf, binaryMagic[:]...)
	} else {
		if dim > math.MaxUint16 {
			return fmt.Errorf("sequence: dimension %d too large", dim)
		}
		buf = binary.LittleEndian.AppendUint16(append(buf, vectorMagic[:]...), uint16(dim))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.seqs)))
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	buf = buf[:cap(buf)]
	for i, s := range d.seqs {
		if len(s.ID) > math.MaxUint16 {
			return fmt.Errorf("sequence: sequence %d: id %q too long", i, s.ID[:32])
		}
		binary.LittleEndian.PutUint16(buf, uint16(len(s.ID)))
		if _, err := bw.Write(buf[:2]); err != nil {
			return err
		}
		if _, err := bw.WriteString(s.ID); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(buf, uint32(len(s.Values)/d.Dim()))
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
		for vals := s.Values; len(vals) > 0; {
			n := min(len(vals), ioChunk)
			for i, v := range vals[:n] {
				binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
			}
			if _, err := bw.Write(buf[:8*n]); err != nil {
				return err
			}
			vals = vals[n:]
		}
	}
	return bw.Flush()
}

// ReadBinary parses a dataset written by WriteBinary, of any dimension.
func ReadBinary(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("sequence: reading magic: %w", err)
	}
	buf := make([]byte, 8*ioChunk)
	dim := 1
	switch magic {
	case binaryMagic:
	case vectorMagic:
		if _, err := io.ReadFull(br, buf[:2]); err != nil {
			return nil, fmt.Errorf("sequence: reading dimension: %w", err)
		}
		if dim = int(binary.LittleEndian.Uint16(buf)); dim == 0 {
			return nil, errors.New("sequence: dimension 0")
		}
	default:
		return nil, ErrBadMagic
	}
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, fmt.Errorf("sequence: reading count: %w", err)
	}
	count := binary.LittleEndian.Uint32(buf)
	d := NewDatasetDim(dim)
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf[:2]); err != nil {
			return nil, fmt.Errorf("sequence: seq %d id length: %w", i, err)
		}
		idBuf := make([]byte, binary.LittleEndian.Uint16(buf))
		if _, err := io.ReadFull(br, idBuf); err != nil {
			return nil, fmt.Errorf("sequence: seq %d id: %w", i, err)
		}
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("sequence: seq %d length: %w", i, err)
		}
		n := int64(binary.LittleEndian.Uint32(buf)) * int64(dim)
		vals, err := readValues(br, n, buf)
		if err != nil {
			return nil, fmt.Errorf("sequence: seq %d values: %w", i, err)
		}
		if _, err := d.Add(Sequence{ID: string(idBuf), Values: vals}); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// readChunk is how many values ReadBinary makes room for before any have
// arrived.
const readChunk = 1 << 16

// readValues reads the n little-endian float64s of one sequence, ioChunk at
// a time through buf. n is whatever the stream says, so storage starts at
// readChunk values and doubles only as values actually arrive: a corrupt
// length costs a short read — io.ErrUnexpectedEOF — not n × 8 bytes of
// allocation.
func readValues(r io.Reader, n int64, buf []byte) ([]float64, error) {
	vals := make([]float64, 0, min(n, readChunk))
	for left := n; left > 0; {
		if len(vals) == cap(vals) {
			vals = slices.Grow(vals, int(min(left, int64(len(vals)))))
		}
		have := len(vals)
		vals = vals[:have+int(min(left, ioChunk, int64(cap(vals)-have)))]
		raw := buf[:8*(len(vals)-have)]
		if _, err := io.ReadFull(r, raw); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		for i := range vals[have:] {
			vals[have+i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		left -= int64(len(vals) - have)
	}
	return vals, nil
}

// SaveFile writes the dataset to path in the binary format, committed with
// storage.Commit, so a failed save leaves the file it would have replaced as
// it was.
func (d *Dataset) SaveFile(path string) error {
	return storage.Commit(path, d.WriteBinary)
}

// LoadFile reads a binary dataset file written by SaveFile.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

// WriteCSV writes one line per sequence: id,v1,v2,...,vn. Values are
// formatted with the shortest representation that round-trips. The format
// carries no dimension, so callers write only datasets of dimension 1.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range d.seqs {
		if strings.ContainsAny(s.ID, ",\n\"") {
			return fmt.Errorf("sequence: id %q not representable in CSV", s.ID)
		}
		if _, err := bw.WriteString(s.ID); err != nil {
			return err
		}
		for _, v := range s.Values {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses the format written by WriteCSV. Blank lines and lines
// starting with '#' are skipped.
func ReadCSV(r io.Reader) (*Dataset, error) {
	d := NewDataset()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) < 2 {
			return nil, fmt.Errorf("sequence: line %d: need id and at least one value", lineNo)
		}
		vals := make([]float64, 0, len(fields)-1)
		for j, f := range fields[1:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("sequence: line %d field %d: %w", lineNo, j+2, err)
			}
			vals = append(vals, v)
		}
		if _, err := d.Add(Sequence{ID: strings.TrimSpace(fields[0]), Values: vals}); err != nil {
			return nil, fmt.Errorf("sequence: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sequence: reading CSV: %w", err)
	}
	return d, nil
}
