package disktree

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"twsearch/internal/storage"
	"twsearch/internal/suffixtree"
)

// wideStore deals one shuffle of a large alphabet into short sequences, so
// the root's child table — one entry per symbol and per terminator — is
// wider than a page in every encoding (v1: 12 bytes an entry, v2: two or
// more).
func wideStore(rng *rand.Rand) *suffixtree.TextStore {
	const alphabet, seqLen = 2500, 50
	ts := suffixtree.NewTextStore()
	perm := rng.Perm(alphabet)
	for at := 0; at < alphabet; at += seqLen {
		text := make([]Symbol, seqLen)
		for i, s := range perm[at : at+seqLen] {
			text[i] = Symbol(s)
		}
		ts.Add(text)
	}
	return ts
}

// allNodes returns every node offset of f in DFS order with the node
// File.ReadNode decodes there.
func allNodes(t *testing.T, f *File) (ptrs []Ptr, nodes []Node) {
	t.Helper()
	var walk func(p Ptr)
	walk = func(p Ptr) {
		n, err := f.ReadNode(p)
		if err != nil {
			t.Fatalf("ReadNode(%d): %v", p, err)
		}
		ptrs, nodes = append(ptrs, p), append(nodes, n)
		for _, c := range n.Children {
			walk(c.Ptr)
		}
	}
	walk(f.Root())
	return ptrs, nodes
}

// One Reader, whatever order it is asked in and however small the pool it
// borrows from, decodes every node exactly as the one-shot File.ReadNode
// does — on a file whose root spans several pages and whose records
// straddle page boundaries at whatever offsets the build left them — and
// holds nothing once closed.
func TestReaderEqualsReadNode(t *testing.T) {
	rng := rand.New(rand.NewSource(1701))
	ts := wideStore(rng)
	for _, enc := range []Encoding{EncodingV1, EncodingV2} {
		path := filepath.Join(t.TempDir(), "wide.twt")
		built, _, err := buildOpen(ts, allSeqs(ts), path, 256, BuildOptions{Encoding: enc})
		if err != nil {
			t.Fatal(err)
		}
		ptrs, want := allNodes(t, built)
		built.Close()
		if kids := len(want[0].Children); kids < 400 {
			t.Fatalf("%s: root has %d children, want a root wider than a page", enc, kids)
		}
		orders := map[string][]int{"dfs": make([]int, len(ptrs)), "reverse": make([]int, len(ptrs)), "random": rng.Perm(len(ptrs))}
		for i := range ptrs {
			orders["dfs"][i], orders["reverse"][i] = i, len(ptrs)-1-i
		}
		type source struct {
			backend storage.Backend
			pool    int
		}
		for _, src := range []source{{storage.BackendPool, 1}, {storage.BackendPool, 4}, {storage.BackendPool, 256}, {storage.BackendMmap, 1}} {
			f, err := OpenBackend(path, src.pool, true, src.backend)
			if err != nil {
				t.Fatal(err)
			}
			var rd Reader
			rd.Reset(f)
			var got Node // one scratch node: stale slices must never show
			for name, order := range orders {
				for k, i := range order {
					if err := rd.ReadNodeInto(ptrs[i], &got); err != nil {
						t.Fatalf("%s %s pool %d, %s order: node at %d: %v", enc, src.backend, src.pool, name, ptrs[i], err)
					}
					if !got.Leaf {
						got.Pos, got.RunLen = 0, 0 // leaf-only fields: a decode leaves them alone
					}
					if !nodesEqual(&want[i], &got) {
						t.Fatalf("%s %s pool %d, %s order: node at %d differs:\n reader: %+v\nReadNode: %+v", enc, src.backend, src.pool, name, ptrs[i], got, want[i])
					}
					if k%101 == 0 && f.PinnedPages() > 1 { // the count walks the whole pool
						t.Fatalf("reader holds %d pages", f.PinnedPages())
					}
				}
			}
			rd.Close()
			if f.PinnedPages() != 0 {
				t.Fatalf("%d pages pinned after Close", f.PinnedPages())
			}
			f.Close()
		}
	}
}

// A record that starts 1..12 bytes before a page boundary is gathered from
// both pages and decodes to the node that was encoded, in each encoding.
func TestReaderStraddle(t *testing.T) {
	in := Node{LabelSeq: 3, LabelStart: 70000, LabelLen: 9, Children: []ChildRef{{1, 4096}, {7, 5000}, {300, 1 << 33}}}
	leaf := Node{LabelSeq: 1, LabelStart: 2, LabelLen: 300, Leaf: true, Pos: 129, RunLen: 4}
	for _, enc := range []Encoding{EncodingV1, EncodingV2} {
		for _, want := range []*Node{&in, &leaf} {
			for before := 1; before <= 12; before++ {
				at := Ptr(2*storage.PageSize - before)
				rec := encodeNode(nil, want, enc, at, true)
				if before >= len(rec) {
					break
				}
				raw := append(make([]byte, storage.PageSize-before), rec...)
				f := writeRecordFile(t, raw, enc)
				var got Node
				if err := f.ReadNodeInto(at, &got); err != nil {
					t.Fatalf("%s, %d bytes before the boundary: %v", enc, before, err)
				}
				if !nodesEqual(want, &got) {
					t.Fatalf("%s, %d bytes before the boundary:\n got: %+v\nwant: %+v", enc, before, got, *want)
				}
				if f.PinnedPages() != 0 {
					t.Fatalf("%d pages pinned after the read", f.PinnedPages())
				}
			}
		}
	}
}

// A file cut off inside a record — here the root's, the last and widest —
// reads as ErrTruncated, a storage.ErrRead: no panic, no wrong node, no pin
// left behind.
func TestReaderTruncatedFile(t *testing.T) {
	ts := wideStore(rand.New(rand.NewSource(1702)))
	for _, enc := range []Encoding{EncodingV1, EncodingV2} {
		path := filepath.Join(t.TempDir(), "cut.twt")
		if _, err := Build(ts, allSeqs(ts), path, BuildOptions{Encoding: enc}); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		size := st.Size()
		if err := os.Truncate(path, size-storage.PageSize); err != nil {
			t.Fatal(err)
		}
		for _, backend := range []storage.Backend{storage.BackendPool, storage.BackendMmap} {
			f, err := OpenBackend(path, 4, true, backend)
			if err != nil {
				t.Fatal(err)
			}
			var rd Reader
			rd.Reset(f)
			var n Node
			if err := rd.ReadNodeInto(f.Root(), &n); !errors.Is(err, ErrTruncated) || !errors.Is(err, storage.ErrRead) {
				t.Fatalf("%s %s: reading the cut root: %v, want ErrTruncated and storage.ErrRead", enc, backend, err)
			}
			rd.Close()
			if _, err := f.ReadNode(f.Root()); !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s %s: ReadNode of the cut root: %v, want ErrTruncated", enc, backend, err)
			}
			if f.PinnedPages() != 0 {
				t.Fatalf("%s %s: %d pages pinned after the failed reads", enc, backend, f.PinnedPages())
			}
			f.Close()
		}
	}
}

// A tree cut after it was opened fails the validation walk with
// storage.ErrRead wrapping io.ErrUnexpectedEOF, through the pool, named,
// and through the default mapping, whose read of a page past the new end
// faults under the walk's fault guard.
func TestValidateCutAfterOpen(t *testing.T) {
	ts := wideStore(rand.New(rand.NewSource(1702)))
	for _, backend := range []storage.Backend{storage.BackendPool, ""} {
		path := filepath.Join(t.TempDir(), "cut.twt")
		if _, err := Build(ts, allSeqs(ts), path, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		f, err := OpenBackend(path, 4, true, backend)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, f.SizeBytes()/2/storage.PageSize*storage.PageSize); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Validate(ts); !errors.Is(err, storage.ErrRead) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: validating a tree cut after open: %v, want storage.ErrRead and io.ErrUnexpectedEOF", backend, err)
		}
		if f.PinnedPages() != 0 {
			t.Errorf("%s: %d pages pinned after the failed walk", backend, f.PinnedPages())
		}
		f.Close()
	}
}

// TestOpenBackendRefusesUnknown: a backend name no page source knows fails
// the open with an error; it never panics.
func TestOpenBackendRefusesUnknown(t *testing.T) {
	ts := randomTexts(rand.New(rand.NewSource(5)), 4, 20, 3)
	path := filepath.Join(t.TempDir(), "t.twt")
	if _, err := Build(ts, allSeqs(ts), path, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if f, err := OpenBackend(path, 4, true, storage.Backend("bogus")); err == nil {
		f.Close()
		t.Fatal("OpenBackend with an unknown backend succeeded")
	}
}
