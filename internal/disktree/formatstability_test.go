package disktree

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"twsearch/internal/suffixtree"
)

// Frozen digests of a deterministic tree serialized in each encoding. A
// change here means the on-disk format changed: bump these constants ONLY
// together with a deliberate, documented format revision — otherwise the
// change is an accidental compatibility break (existing index files would
// stop opening correctly).
const (
	refLayoutSHA256 = "fe928d2de7170aa18ea65bd9fa71dfca7d9bce00bf021e6e2ca4b19e1c99340d"
	// Encoding v2 (compact varint records; meta blob grows the encoding
	// byte). Frozen separately — the v1 digest above must never move when
	// v2 changes, and vice versa.
	refLayoutV2SHA256 = "024bbcd25960fd2fe96a5f72fb0bf6f39982c48709b4ac3a077231274993219f"
)

func formatFixtureStore() *suffixtree.TextStore {
	ts := suffixtree.NewTextStore()
	ts.Add([]Symbol{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
	ts.Add([]Symbol{2, 7, 1, 8, 2, 8, 1, 8, 2, 8})
	ts.Add([]Symbol{1, 1, 2, 2, 3, 3})
	return ts
}

func TestFormatStability(t *testing.T) {
	ts := formatFixtureStore()
	tree := suffixtree.BuildNaive(ts, []int{0, 1, 2}, false)
	for _, tc := range []struct {
		enc  Encoding
		want string
	}{
		{EncodingV1, refLayoutSHA256},
		{EncodingV2, refLayoutV2SHA256},
	} {
		path := filepath.Join(t.TempDir(), "fixture.twt")
		f, err := CreateEncoded(path, tree, 16, LayoutReference, tc.enc)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		got := hex.EncodeToString(sum[:])
		if got == tc.want {
			continue
		}
		if tc.want == "" {
			t.Logf("%s digest: %s", tc.enc, got)
			t.Fatal("fill in the frozen digest above")
		}
		t.Errorf("%s serialized differently: %s (frozen: %s) — intentional format change?",
			tc.enc, got, tc.want)
	}
}
