package categorize

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Scheme binary format:
//
//	magic  [8]byte  "TWCATSC1"
//	kind   uint8    0=EL 1=ME 2=KM 3=ID
//	count  uint32   number of categories
//	per category: Lo, Hi, ObsLo, ObsHi float64, Count uint64
//
// A persisted index directory stores its scheme next to the tree file so a
// reopened database encodes queries' candidate subsequences identically.

var schemeMagic = [8]byte{'T', 'W', 'C', 'A', 'T', 'S', 'C', '1'}

// ErrBadSchemeFile reports a malformed scheme stream.
var ErrBadSchemeFile = errors.New("categorize: not a TWCATSC1 scheme stream")

// ErrTruncatedScheme reports a scheme stream that ends before the
// categories its header declares.
var ErrTruncatedScheme = errors.New("categorize: scheme stream ends before its declared categories")

// ErrNoCategories reports a scheme or grid stream that declares zero
// categories or cells.
var ErrNoCategories = errors.New("categorize: stream declares no categories")

var kindCodes = map[Kind]uint8{
	KindEqualLength: 0,
	KindMaxEntropy:  1,
	KindKMeans:      2,
	KindIdentity:    3,
}

var codeKinds = map[uint8]Kind{
	0: KindEqualLength,
	1: KindMaxEntropy,
	2: KindKMeans,
	3: KindIdentity,
}

// Write serializes the scheme to w in the TWCATSC1 binary format.
func (s *Scheme) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(schemeMagic[:]); err != nil {
		return err
	}
	code, ok := kindCodes[s.kind]
	if !ok {
		return fmt.Errorf("categorize: unknown kind %q", s.kind)
	}
	if err := bw.WriteByte(code); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(s.cats))); err != nil {
		return err
	}
	for _, c := range s.cats {
		for _, f := range []float64{c.Lo, c.Hi, c.ObsLo, c.ObsHi} {
			if err := binary.Write(bw, binary.LittleEndian, f); err != nil {
				return err
			}
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(c.Count)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadScheme parses a stream written by Write. It reads exactly the bytes
// the scheme occupies (no read-ahead), so several framed structures can
// share one stream.
func ReadScheme(r io.Reader) (*Scheme, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("categorize: reading magic: %w", err)
	}
	if magic != schemeMagic {
		return nil, ErrBadSchemeFile
	}
	var codeBuf [1]byte
	if _, err := io.ReadFull(r, codeBuf[:]); err != nil {
		return nil, fmt.Errorf("categorize: reading kind: %w", err)
	}
	kind, ok := codeKinds[codeBuf[0]]
	if !ok {
		return nil, fmt.Errorf("categorize: unknown kind code %d", codeBuf[0])
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("categorize: reading category count: %w", err)
	}
	if count == 0 {
		// Every fit makes at least one category, and no value has a
		// symbol in a scheme of none.
		return nil, ErrNoCategories
	}
	// The count is whatever the stream says, so storage grows as records
	// actually arrive: a corrupt count costs a short read, not count × 40
	// bytes of allocation.
	prealloc := min(count, 1<<10)
	cats := make([]Category, 0, prealloc)
	uppers := make([]float64, 0, prealloc)
	var rec [40]byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("%w: %d declared, %d present", ErrTruncatedScheme, count, i)
			}
			return nil, fmt.Errorf("categorize: category %d: %w", i, err)
		}
		var f [4]float64
		for j := range f {
			f[j] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8*j:]))
		}
		n := binary.LittleEndian.Uint64(rec[32:])
		cats = append(cats, Category{Lo: f[0], Hi: f[1], ObsLo: f[2], ObsHi: f[3], Count: int(n)})
		uppers = append(uppers, f[1])
	}
	return (&Scheme{kind: kind, cats: cats, uppers: uppers}).withGrid(), nil
}
