package disktree

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"twsearch/internal/suffixtree"
)

// Frozen digests of a deterministic tree serialized in each layout. A
// change here means the on-disk format changed: bump these constants ONLY
// together with a deliberate, documented format revision — otherwise the
// change is an accidental compatibility break (existing index files would
// stop opening correctly).
const (
	refLayoutSHA256    = "fe928d2de7170aa18ea65bd9fa71dfca7d9bce00bf021e6e2ca4b19e1c99340d"
	inlineLayoutSHA256 = "111a1d3f22536ab5e68cbc9daee5556191cfa8c5ec03b7a720ab2e43e1d1d7cc"
	// Encoding v2 (compact varint records; meta blob grows the encoding
	// byte). Frozen separately — the v1 digests above must never move when
	// v2 changes, and vice versa.
	refLayoutV2SHA256    = "024bbcd25960fd2fe96a5f72fb0bf6f39982c48709b4ac3a077231274993219f"
	inlineLayoutV2SHA256 = "59cde46f546d5a64dcea956f9a1acab76387679f36906d1240d6db0f36a00de8"
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
		layout Layout
		enc    Encoding
		want   string
	}{
		{LayoutReference, EncodingV1, refLayoutSHA256},
		{LayoutInline, EncodingV1, inlineLayoutSHA256},
		{LayoutReference, EncodingV2, refLayoutV2SHA256},
		{LayoutInline, EncodingV2, inlineLayoutV2SHA256},
	} {
		path := filepath.Join(t.TempDir(), "fixture.twt")
		f, err := CreateEncoded(path, tree, 16, tc.layout, tc.enc)
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
			t.Logf("%s layout %s digest: %s", tc.layout, tc.enc, got)
			t.Fatal("fill in the frozen digest above")
		}
		t.Errorf("%s layout %s serialized differently: %s (frozen: %s) — intentional format change?",
			tc.layout, tc.enc, got, tc.want)
	}
}
