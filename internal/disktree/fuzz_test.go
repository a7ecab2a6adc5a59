package disktree

import (
	"os"
	"path/filepath"
	"testing"

	"twsearch/internal/suffixtree"
)

// FuzzValidateCorruption writes a valid small tree, applies an arbitrary
// byte mutation from the fuzzer — anywhere in the file, meta page included —
// and requires Open and Validate to terminate without panicking: the file
// is refused at Open, or Validate returns an error, or (mutation hit slack
// space) it still passes — never a crash, never a loop.
func FuzzValidateCorruption(f *testing.F) {
	f.Add(uint32(4100), byte(0xFF))
	f.Add(uint32(4096), byte(0x01))
	f.Add(uint32(5000), byte(0x80))
	// The meta blob's length prefix, 46 → 47: the blob grows a version byte
	// of 0, an encoding no build ever wrote (ErrUnsupportedEncoding).
	f.Add(uint32(8), byte(0x01))
	// The root record's label length, 0 → negative: Validate let it through
	// and Load panicked sizing the label.
	f.Add(uint32(4645), byte(0x94))
	f.Fuzz(func(t *testing.T, offset uint32, xor byte) {
		if xor == 0 {
			return // identity mutation
		}
		ts := suffixtree.NewTextStore()
		ts.Add([]Symbol{1, 2, 1, 1, 3, 2, 2, 1})
		ts.Add([]Symbol{2, 1, 3, 3, 1})
		tree := suffixtree.BuildNaive(ts, []int{0, 1}, false)
		dir := t.TempDir()
		path := filepath.Join(dir, "fz.twt")
		df, err := Create(path, tree, 16)
		if err != nil {
			t.Fatal(err)
		}
		df.Close()

		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[int(offset)%len(raw)] ^= xor
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		re, err := Open(path, 16, true)
		if err != nil {
			return // rejected at open: fine
		}
		defer re.Close()
		// Must terminate; the result may be an error or, if the mutation
		// hit padding, a clean pass whose Load round-trips.
		if _, err := re.Validate(ts); err != nil {
			return
		}
		got, err := re.Load(ts)
		if err != nil {
			return
		}
		if !suffixtree.Equal(tree, got) {
			t.Fatal("mutation passed Validate but changed the tree")
		}
	})
}
