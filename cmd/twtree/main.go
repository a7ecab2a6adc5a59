// Command twtree inspects and validates the disk-resident suffix tree of a
// twsearch database index, of any dimension.
//
// Usage:
//
//	twtree -db DIR -name INDEX           # header + structural validation
//	twtree -db DIR -name INDEX -dump 3   # also dump the tree to depth 3
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"twsearch/internal/categorize"
	"twsearch/internal/core"
	"twsearch/internal/disktree"
	"twsearch/internal/sequence"
	"twsearch/internal/suffixtree"
)

func main() {
	db := flag.String("db", "", "database directory")
	name := flag.String("name", "", "index name")
	dump := flag.Int("dump", 0, "dump the tree to this depth (0 = no dump)")
	pool := flag.Int("pool", 256, "buffer pool pages")
	flag.Parse()
	if *db == "" || *name == "" {
		fmt.Fprintln(os.Stderr, "usage: twtree -db DIR -name INDEX [-dump N]")
		os.Exit(2)
	}
	if err := run(*db, *name, *dump, *pool); err != nil {
		fmt.Fprintln(os.Stderr, "twtree:", err)
		os.Exit(1)
	}
}

// loadIndex finds index name in dbDir — its idx-NAME files over data.twdb —
// and rebuilds the text store its reference-layout edge labels resolve
// through. It returns a description of the categorization, the tree file's
// path and the store.
func loadIndex(dbDir, name string) (scheme, treePath string, store *suffixtree.TextStore, err error) {
	data, err := sequence.LoadFile(filepath.Join(dbDir, "data.twdb"))
	if err != nil {
		return "", "", nil, fmt.Errorf("loading dataset: %w", err)
	}
	rf, err := os.Open(filepath.Join(dbDir, "idx-"+name+".cat"))
	if err != nil {
		return "", "", nil, fmt.Errorf("loading index record: %w", err)
	}
	rec, err := core.ReadIndexRecord(rf)
	rf.Close()
	if err != nil {
		return "", "", nil, err
	}
	sch := rec.Scheme
	if store, err = core.Encode(data, sch); err != nil {
		return "", "", nil, err
	}
	scheme = fmt.Sprintf("%s, %d categories", sch.Kind(), sch.NumCategories())
	if g, ok := sch.(*categorize.GridScheme); ok {
		scheme = fmt.Sprintf("%d-D grid, %d cells", g.Dim(), g.NumCells())
	}
	return scheme, filepath.Join(dbDir, "idx-"+name+".twt"), store, nil
}

func run(dbDir, name string, dump, pool int) error {
	scheme, treePath, store, err := loadIndex(dbDir, name)
	if err != nil {
		return err
	}
	f, err := disktree.Open(treePath, pool, true)
	if err != nil {
		return err
	}
	defer f.Close()

	fmt.Printf("index %q of %s\n", name, dbDir)
	fmt.Printf("  scheme:     %s\n", scheme)
	fmt.Printf("  sparse:     %v\n", f.Sparse())
	fmt.Printf("  encoding:   %s\n", f.Encoding())
	fmt.Printf("  file:       %d KB (%d nodes, %d leaves, %d label symbols)\n",
		f.SizeBytes()/1024, f.NumNodes(), f.NumLeaves(), f.TotalLabelSymbols())
	st, err := f.Validate(store)
	if err != nil {
		fmt.Printf("  VALIDATION FAILED: %v\n", err)
		return err
	}
	fmt.Printf("  validation: OK (%d nodes, %d leaves, max depth %d)\n", st.Nodes, st.Leaves, st.MaxDepth)

	if dump > 0 {
		return dumpTree(f, store, dump)
	}
	return nil
}

func dumpTree(f *disktree.File, store *suffixtree.TextStore, maxDepth int) error {
	var walk func(p disktree.Ptr, depth int) error
	walk = func(p disktree.Ptr, depth int) error {
		if depth > maxDepth {
			return nil
		}
		n, err := f.ReadNode(p)
		if err != nil {
			return err
		}
		var label strings.Builder
		for i := 0; i < int(n.LabelLen); i++ {
			if i > 0 {
				label.WriteByte(' ')
			}
			sym := store.Sym(int(n.LabelSeq), int(n.LabelStart)+i)
			if suffixtree.IsTerminator(sym) {
				fmt.Fprintf(&label, "$%d", -int(sym)-1)
			} else {
				fmt.Fprintf(&label, "%d", sym)
			}
		}
		indent := strings.Repeat("  ", depth)
		if n.Leaf {
			fmt.Printf("%s<%s> leaf (seq=%d pos=%d run=%d)\n", indent, label.String(), n.LabelSeq, n.Pos, n.RunLen)
			return nil
		}
		what := "node"
		if depth == 0 {
			what = "root"
		}
		fmt.Printf("%s<%s> %s, %d children\n", indent, label.String(), what, len(n.Children))
		if depth == maxDepth {
			return nil
		}
		for _, c := range n.Children {
			if err := walk(c.Ptr, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(f.Root(), 0)
}
