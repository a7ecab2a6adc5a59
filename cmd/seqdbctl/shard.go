package main

import (
	"flag"
	"fmt"

	"twsearch/seqdb"
)

// parseMethod maps the -method shorthand onto the index method.
func parseMethod(s string) (seqdb.Method, error) {
	switch s {
	case "me":
		return seqdb.MethodMaxEntropy, nil
	case "el":
		return seqdb.MethodEqualLength, nil
	case "kmeans":
		return seqdb.MethodKMeans, nil
	case "exact":
		return seqdb.MethodExact, nil
	}
	return "", fmt.Errorf("unknown method %q", s)
}

// indexFlags registers on fs the flags that describe an index to build —
// one set for `index` and `shard -name` — and returns what reads them into
// a spec once fs is parsed.
func indexFlags(fs *flag.FlagSet) func() (seqdb.IndexSpec, error) {
	method := fs.String("method", "me", "index method: me, el, kmeans, or exact")
	cats := fs.Int("cats", 0, "number of categories, per dimension when -dim > 1 (0 = 20, or 8 per dimension)")
	sparse := fs.Bool("sparse", false, "sparse suffix tree (SSTc)")
	window := fs.Int("window", 0, "warping window half-width (0 = none)")
	encName := fs.String("encoding", "", "node record encoding: v1 or v2 (compact varint); default v1, v2 when -dim > 1")
	return func() (seqdb.IndexSpec, error) {
		m, err := parseMethod(*method)
		if err != nil {
			return seqdb.IndexSpec{}, err
		}
		spec := seqdb.IndexSpec{Method: m, Categories: *cats, Sparse: *sparse, Window: *window}
		if *encName != "" {
			spec.Encoding, err = seqdb.ParseEncoding(*encName)
		}
		return spec, err
	}
}

// cmdShard partitions an existing database into a sharded database root:
// a MANIFEST.shards plus one self-contained shard database per contiguous
// slice of the sequence numbering. With -name it also builds that index on
// every shard, so the output is immediately queryable.
func cmdShard(args []string) error {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	db := fs.String("db", "", "source database directory")
	out := fs.String("out", "", "output directory for the sharded database")
	shards := fs.Int("shards", 2, "number of shards")
	name := fs.String("name", "", "build this index on every shard after partitioning (optional)")
	indexSpec := indexFlags(fs)
	fs.Parse(args)
	if *db == "" || *out == "" {
		return fmt.Errorf("shard: -db and -out required")
	}
	if *shards < 1 {
		return fmt.Errorf("shard: -shards must be at least 1")
	}
	d, err := seqdb.Open(*db)
	if err != nil {
		return err
	}
	defer d.Close()
	sdb, err := d.PartitionInto(*out, *shards)
	if err != nil {
		return err
	}
	defer sdb.Close()
	for i, r := range sdb.ShardRanges() {
		fmt.Printf("shard %3d: sequences [%d, %d)\n", i, r.Start, r.End())
	}
	fmt.Printf("partitioned %d sequences into %d shards under %s\n", sdb.Len(), sdb.Shards(), *out)
	if *name == "" {
		return nil
	}
	spec, err := indexSpec()
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if err := sdb.BuildIndex(*name, spec); err != nil {
		return err
	}
	info, err := sdb.Index(*name)
	if err != nil {
		return err
	}
	fmt.Printf("built index %q on every shard: %d KB total, %d leaves\n",
		*name, info.SizeBytes/1024, info.Leaves)
	return nil
}
