package disktree

import (
	"fmt"

	"twsearch/internal/categorize"
	"twsearch/internal/suffixtree"
)

// ValidateStats is what Validate learned while walking the file.
type ValidateStats struct {
	Nodes    uint64
	Leaves   uint64
	MaxDepth int
}

// Validate walks the whole tree file and checks its structural invariants
// against the text store: child tables sorted with distinct first symbols
// that match the children's labels, internal nodes (except the root) with
// at least two children, leaf paths spelling their suffix plus terminator,
// leaf run lengths consistent with the text, and meta counters matching the
// walk. It is what cmd/twtree runs and what the merge tests lean on. A
// mapped file cut since it was opened fails the walk with storage.ErrRead,
// as a read through the pool would.
func (f *File) Validate(store *suffixtree.TextStore) (st ValidateStats, err error) {
	defer f.GuardFaults().Recover(&err)
	var walk func(p Ptr, path []Symbol, depth int) error
	walk = func(p Ptr, path []Symbol, depth int) error {
		n, err := f.ReadNode(p)
		if err != nil {
			return fmt.Errorf("disktree: reading node at %d: %w", p, err)
		}
		st.Nodes++
		// Guard against corrupted files whose pointers form cycles or fan
		// out beyond the recorded node count: without this, a cycle would
		// recurse forever.
		if st.Nodes > f.meta.nodes {
			return fmt.Errorf("disktree: walked more than the %d recorded nodes (cycle or corrupt pointers?)", f.meta.nodes)
		}
		if depth > st.MaxDepth {
			st.MaxDepth = depth
		}
		if p == f.meta.root && n.LabelLen != 0 {
			return fmt.Errorf("disktree: root at %d has a label of %d symbols", p, n.LabelLen)
		}
		for i := 0; i < int(n.LabelLen); i++ {
			sym, err := symAt(store, int(n.LabelSeq), int(n.LabelStart)+i)
			if err != nil {
				return fmt.Errorf("disktree: node at %d: %w", p, err)
			}
			path = append(path, sym)
		}
		if n.Leaf {
			st.Leaves++
			if len(n.Children) != 0 {
				return fmt.Errorf("disktree: leaf at %d has children", p)
			}
			seq, pos := int(n.LabelSeq), int(n.Pos)
			if seq < 0 || seq >= store.Len() {
				return fmt.Errorf("disktree: leaf at %d references sequence %d of %d", p, seq, store.Len())
			}
			text := store.Text(seq)
			if pos < 0 || pos >= len(text) {
				return fmt.Errorf("disktree: leaf at %d has position %d outside sequence %d (len %d)", p, pos, seq, len(text))
			}
			want := append(append([]Symbol{}, text[pos:]...), suffixtree.Terminator(seq))
			if len(path) != len(want) {
				return fmt.Errorf("disktree: leaf (%d,%d) path length %d, want %d", seq, pos, len(path), len(want))
			}
			for i := range want {
				if path[i] != want[i] {
					return fmt.Errorf("disktree: leaf (%d,%d) path differs at %d: %d != %d", seq, pos, i, path[i], want[i])
				}
			}
			if got := categorize.RunLengthAt(text, pos); got != int(n.RunLen) {
				return fmt.Errorf("disktree: leaf (%d,%d) run length %d, want %d", seq, pos, n.RunLen, got)
			}
			return nil
		}
		if p != f.meta.root && len(n.Children) < 2 {
			return fmt.Errorf("disktree: internal node at %d has %d children", p, len(n.Children))
		}
		var prev Symbol
		for i, c := range n.Children {
			if i > 0 && c.Sym <= prev {
				return fmt.Errorf("disktree: node at %d has unsorted children (%d after %d)", p, c.Sym, prev)
			}
			prev = c.Sym
			child, err := f.ReadNode(c.Ptr)
			if err != nil {
				return fmt.Errorf("disktree: reading child at %d: %w", c.Ptr, err)
			}
			if child.LabelLen <= 0 {
				return fmt.Errorf("disktree: empty edge label at %d", c.Ptr)
			}
			got, err := symAt(store, int(child.LabelSeq), int(child.LabelStart))
			if err != nil {
				return fmt.Errorf("disktree: child at %d: %w", c.Ptr, err)
			}
			if got != c.Sym {
				return fmt.Errorf("disktree: child table at %d says %d, child label starts with %d", p, c.Sym, got)
			}
			if err := walk(c.Ptr, path, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(f.meta.root, nil, 0); err != nil {
		return st, err
	}
	if st.Nodes != f.meta.nodes {
		return st, fmt.Errorf("disktree: walked %d nodes, meta says %d", st.Nodes, f.meta.nodes)
	}
	if st.Leaves != f.meta.leaves {
		return st, fmt.Errorf("disktree: walked %d leaves, meta says %d", st.Leaves, f.meta.leaves)
	}
	return st, nil
}

// symAt is TextStore.Sym with bounds checking, so validation of corrupted
// files reports errors instead of panicking on wild label references.
func symAt(store *suffixtree.TextStore, seq, pos int) (Symbol, error) {
	if seq < 0 || seq >= store.Len() {
		return 0, fmt.Errorf("label references sequence %d of %d", seq, store.Len())
	}
	if pos < 0 || pos > len(store.Text(seq)) {
		return 0, fmt.Errorf("label references position %d of sequence %d (len %d)", pos, seq, len(store.Text(seq)))
	}
	return store.Sym(seq, pos), nil
}
