// Command twtree inspects, validates, and migrates the disk-resident
// suffix tree of a twsearch database index.
//
// Usage:
//
//	twtree -db DIR -name INDEX           # header + structural validation
//	twtree -db DIR -name INDEX -dump 3   # also dump the tree to depth 3
//	twtree rewrite -db DIR -name INDEX -encoding v2 [-out FILE] [-pool N]
//
// rewrite re-serializes an index tree under another node record encoding
// (v1 fixed-width, v2 compact varint, or v3 = v2 plus per-child envelope
// hulls) without touching the logical tree. Rewriting to v3 reads the
// database's data and scheme files to aggregate the hulls. Without -out it
// atomically replaces the index file in place; the database must not be
// open elsewhere while it runs.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"twsearch/internal/categorize"
	"twsearch/internal/disktree"
	"twsearch/internal/sequence"
	"twsearch/internal/suffixtree"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "rewrite" {
		if err := cmdRewrite(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "twtree:", err)
			os.Exit(1)
		}
		return
	}
	db := flag.String("db", "", "database directory")
	name := flag.String("name", "", "index name")
	dump := flag.Int("dump", 0, "dump the tree to this depth (0 = no dump)")
	pool := flag.Int("pool", 256, "buffer pool pages")
	flag.Parse()
	if *db == "" || *name == "" {
		fmt.Fprintln(os.Stderr, "usage: twtree -db DIR -name INDEX [-dump N] | twtree rewrite -db DIR -name INDEX -encoding v1|v2|v3")
		os.Exit(2)
	}
	if err := run(*db, *name, *dump, *pool); err != nil {
		fmt.Fprintln(os.Stderr, "twtree:", err)
		os.Exit(1)
	}
}

// cmdRewrite migrates one index file between node record encodings.
func cmdRewrite(args []string) error {
	fs := flag.NewFlagSet("rewrite", flag.ExitOnError)
	db := fs.String("db", "", "database directory")
	name := fs.String("name", "", "index name")
	encName := fs.String("encoding", "", "target encoding: v1, v2, or v3")
	out := fs.String("out", "", "write here instead of replacing the index file in place")
	pool := fs.Int("pool", 256, "buffer pool pages")
	fs.Parse(args)
	if *db == "" || *name == "" || *encName == "" {
		return fmt.Errorf("rewrite: -db, -name, and -encoding required")
	}
	enc, err := disktree.ParseEncoding(*encName)
	if err != nil {
		return fmt.Errorf("rewrite: %w", err)
	}
	inPath := filepath.Join(*db, "idx-"+*name+".twt")
	outPath := *out
	inPlace := outPath == ""
	if inPlace {
		outPath = inPath + ".rewrite"
	}
	// v3 aggregates envelope hulls from edge labels; reference-layout trees
	// resolve labels through the categorized text store, so load it whenever
	// the target might need it.
	var store *suffixtree.TextStore
	if enc == disktree.EncodingV3 {
		store, err = loadStore(*db, *name)
		if err != nil {
			return fmt.Errorf("rewrite to v3: %w", err)
		}
	}
	f, err := disktree.Rewrite(inPath, outPath, *pool, enc, store)
	if err != nil {
		if inPlace {
			os.Remove(outPath)
		}
		return err
	}
	size := f.SizeBytes()
	nodes := f.NumNodes()
	if err := f.Close(); err != nil {
		return err
	}
	if inPlace {
		if err := os.Rename(outPath, inPath); err != nil {
			os.Remove(outPath)
			return err
		}
		outPath = inPath
	}
	fmt.Printf("rewrote %s as %s: %d KB, %d nodes -> %s\n", inPath, enc, size/1024, nodes, outPath)
	return nil
}

// loadStore rebuilds the categorized text store of one index from the
// database's data and scheme files — what both validation and v3 hull
// aggregation resolve reference-layout edge labels through.
func loadStore(dbDir, name string) (*suffixtree.TextStore, error) {
	data, err := sequence.LoadFile(filepath.Join(dbDir, "data.twdb"))
	if err != nil {
		return nil, fmt.Errorf("loading dataset: %w", err)
	}
	sf, err := os.Open(filepath.Join(dbDir, "idx-"+name+".cat"))
	if err != nil {
		return nil, fmt.Errorf("loading scheme: %w", err)
	}
	scheme, err := categorize.ReadScheme(sf)
	sf.Close()
	if err != nil {
		return nil, err
	}
	store := suffixtree.NewTextStore()
	for i := 0; i < data.Len(); i++ {
		store.Add(scheme.Encode(data.Values(i)))
	}
	return store, nil
}

func run(dbDir, name string, dump, pool int) error {
	sf, err := os.Open(filepath.Join(dbDir, "idx-"+name+".cat"))
	if err != nil {
		return fmt.Errorf("loading scheme: %w", err)
	}
	scheme, err := categorize.ReadScheme(sf)
	sf.Close()
	if err != nil {
		return err
	}
	store, err := loadStore(dbDir, name)
	if err != nil {
		return err
	}

	f, err := disktree.Open(filepath.Join(dbDir, "idx-"+name+".twt"), pool, true)
	if err != nil {
		return err
	}
	defer f.Close()

	fmt.Printf("index %q of %s\n", name, dbDir)
	fmt.Printf("  scheme:     %s, %d categories\n", scheme.Kind(), scheme.NumCategories())
	fmt.Printf("  sparse:     %v\n", f.Sparse())
	fmt.Printf("  layout:     %s\n", f.Layout())
	fmt.Printf("  encoding:   %s\n", f.Encoding())
	fmt.Printf("  file:       %d KB (%d nodes, %d leaves, %d label symbols)\n",
		f.SizeBytes()/1024, f.NumNodes(), f.NumLeaves(), f.TotalLabelSymbols())
	if f.Encoding() == disktree.EncodingV3 {
		entries, bytes, err := envelopeStats(f)
		if err != nil {
			return fmt.Errorf("envelope stats: %w", err)
		}
		perNode := 0.0
		if n := f.NumNodes(); n > 0 {
			perNode = float64(bytes) / float64(n)
		}
		fmt.Printf("  envelopes:  present (format v3): %d child hulls, %d bytes (%.2f B/node)\n",
			entries, bytes, perNode)
	} else {
		fmt.Printf("  envelopes:  none (format %s; `twtree rewrite -encoding v3` adds them)\n", f.Encoding())
	}

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

// envelopeStats walks every internal node and totals the per-child hull
// profiles a v3 file persists, sizing each exactly as the codec does (per
// segment, two signed varints: the segment minimum and its span) so the
// reported overhead is the real on-disk cost of the envelope tier.
func envelopeStats(f *disktree.File) (entries int64, bytes int64, err error) {
	var scratch [2 * binary.MaxVarintLen64]byte
	var n disktree.Node
	var walk func(p disktree.Ptr) error
	walk = func(p disktree.Ptr) error {
		if err := f.ReadNodeInto(p, &n); err != nil {
			return err
		}
		if n.Leaf {
			return nil
		}
		for _, h := range n.Hulls {
			entries++
			for _, g := range h.Seg {
				w := binary.PutVarint(scratch[:], int64(g.Lo))
				w += binary.PutVarint(scratch[:], int64(g.Hi)-int64(g.Lo))
				bytes += int64(w)
			}
		}
		// n is overwritten by the reads below.
		for _, c := range append([]disktree.ChildRef(nil), n.Children...) {
			if err := walk(c.Ptr); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(f.Root()); err != nil {
		return 0, 0, err
	}
	return entries, bytes, nil
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
			var sym suffixtree.Symbol
			if len(n.Label) > 0 {
				sym = n.Label[i]
			} else {
				sym = store.Sym(int(n.LabelSeq), int(n.LabelStart)+i)
			}
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
