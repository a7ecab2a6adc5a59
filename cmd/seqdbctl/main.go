// Command seqdbctl manages twsearch sequence databases from the shell.
//
// Usage:
//
//	seqdbctl create  -db DIR [-dim D]
//	seqdbctl gen     -db DIR [-dim D] [-kind stocks|artificial] [-n N] [-len L] [-seed S]
//	seqdbctl import  -db DIR -csv FILE
//	seqdbctl stats   -db DIR [-backend pool|mmap]
//	seqdbctl index   -db DIR -name NAME [-method me|el|kmeans|exact] [-cats N] [-sparse] [-window W] [-encoding v1|v2]
//	seqdbctl drop    -db DIR -name NAME
//	seqdbctl query   -db DIR -name NAME -eps E (-q "v1,v2,..." | -from SEQID -start P -len L) [-limit N] [-timeout D] [-backend B] [-envelopes auto|on|off]
//	seqdbctl scan    -db DIR -eps E (-q "v1,v2,..." | -from SEQID -start P -len L) [-limit N] [-timeout D] [-backend B] [-envelopes auto|on|off]
//	seqdbctl knn     -db DIR -name NAME [-k K] (-q "v1,v2,..." | -from SEQID -start P -len L) [-timeout D] [-backend B] [-envelopes auto|on|off]
//	seqdbctl shard   -db DIR -out DIR -shards N [-name NAME -method ... -cats N]
//
// A database holds sequences of D-dimensional points (-dim, default 1:
// values); gen -dim D > 1 writes random-walk trajectories. A -q query or a
// -from cut is point-major: -q "x1,y1,x2,y2,..." and -start/-len count
// points. align, tune, import and serving (-addr) are for D = 1.
//
// Wherever -db takes a directory, a sharded database root (a directory
// holding a MANIFEST.shards, as written by the shard subcommand) works
// too, and searches fan out over its shards; tune needs a flat database.
//
// query, scan, and knn also run against a twsearchd daemon instead of a
// local directory: pass -addr host:port (with -q, since the server does
// not expose raw sequence values for -from cuts).
//
// Exit codes: 0 success, 1 generic error, 2 usage, 3 deadline exceeded
// (-timeout hit locally or on the server), 4 server overloaded.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"twsearch/internal/wire"
	"twsearch/internal/workload"
	"twsearch/seqdb"
	"twsearch/seqdb/client"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "create":
		err = cmdCreate(args)
	case "gen":
		err = cmdGen(args)
	case "import":
		err = cmdImport(args)
	case "stats":
		err = cmdStats(args)
	case "index":
		err = cmdIndex(args)
	case "drop":
		err = cmdDrop(args)
	case "query":
		err = cmdQuery(args, true)
	case "scan":
		err = cmdQuery(args, false)
	case "knn":
		err = cmdKNN(args)
	case "align":
		err = cmdAlign(args)
	case "tune":
		err = cmdTune(args)
	case "shard":
		err = cmdShard(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "seqdbctl:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps error classes onto distinct shell exit codes so scripts
// can tell a slow query from a rejected one: 3 for deadline/timeout, 4
// for a server-side overload fast-fail, 1 for everything else.
func exitCode(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return 3
	case errors.Is(err, wire.ErrOverloaded):
		return 4
	}
	return 1
}

// queryContext honors -timeout; zero means no deadline.
func queryContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.Background(), func() {}
}

// openDB opens dir, a flat database or a sharded root, reading index trees
// through the -backend storage backend ("" = mmap) with the
// -envelopes cascade mode ("" = on).
func openDB(dir, backendName, envName string) (*seqdb.DB, error) {
	backend, err := seqdb.ParseBackend(backendName)
	if err != nil {
		return nil, err
	}
	envelopes, err := seqdb.ParseEnvelopeMode(envName)
	if err != nil {
		return nil, err
	}
	return seqdb.OpenWith(dir, seqdb.OpenOptions{Backend: backend, Envelopes: envelopes})
}

// backendFlag registers the shared -backend flag on a subcommand FlagSet.
func backendFlag(fs *flag.FlagSet) *string {
	return fs.String("backend", "", "storage backend for index trees: mmap (default) or pool (bounded memory)")
}

// envelopesFlag registers the shared -envelopes flag on a subcommand
// FlagSet.
func envelopesFlag(fs *flag.FlagSet) *string {
	return fs.String("envelopes", "", "envelope lower-bound cascade: auto (default, on), on, or off")
}

// parseQueryValues parses the -q "v1,v2,..." form.
func parseQueryValues(s string) ([]float64, error) {
	var q []float64
	for _, fld := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(fld), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", fld)
		}
		q = append(q, v)
	}
	return q, nil
}

// cutQuery copies the points [start, start+n) of sequence from as a query.
func cutQuery(d *seqdb.DB, from string, start, n int) ([]float64, error) {
	vals := d.Values(from)
	if vals == nil {
		return nil, fmt.Errorf("no sequence %q", from)
	}
	dim := d.Dim()
	if start < 0 || n < 1 || (start+n)*dim > len(vals) {
		return nil, fmt.Errorf("[%d, %d) out of range of %q (len %d)", start, start+n, from, len(vals)/dim)
	}
	return append([]float64(nil), vals[start*dim:(start+n)*dim]...), nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: seqdbctl create|gen|import|stats|index|drop|query|scan|knn|align|tune|shard [flags]")
	os.Exit(2)
}

// cmdAlign shows the optimal warping path between a stored subsequence and
// a query cut from another sequence.
func cmdAlign(args []string) error {
	fs := flag.NewFlagSet("align", flag.ExitOnError)
	db := fs.String("db", "", "database directory")
	seqID := fs.String("seq", "", "matched sequence id")
	start := fs.Int("start", 0, "match start (0-based)")
	end := fs.Int("end", 0, "match end (exclusive)")
	from := fs.String("from", "", "take the query from this sequence id")
	qstart := fs.Int("qstart", 0, "query start within -from")
	qlen := fs.Int("qlen", 20, "query length within -from")
	fs.Parse(args)
	if *db == "" || *seqID == "" || *from == "" || *end <= *start {
		return fmt.Errorf("align: -db, -seq, -start/-end and -from required")
	}
	d, err := seqdb.Open(*db)
	if err != nil {
		return err
	}
	defer d.Close()
	q, err := cutQuery(d, *from, *qstart, *qlen)
	if err != nil {
		return fmt.Errorf("align: %w", err)
	}
	dist, steps, err := d.Align(seqdb.Match{SeqID: *seqID, Start: *start, End: *end}, q)
	if err != nil {
		return err
	}
	vals := d.Values(*seqID)
	fmt.Printf("D_tw(%s[%d:%d], %s[%d:%d]) = %.4f\n", *seqID, *start, *end, *from, *qstart, *qstart+*qlen, dist)
	for _, st := range steps {
		fmt.Printf("  q[%2d]=%8.3f  ->  s[%3d]=%8.3f  (|diff| %.3f)\n",
			st.QueryIndex, q[st.QueryIndex], st.SeqIndex, vals[st.SeqIndex],
			abs64(q[st.QueryIndex]-vals[st.SeqIndex]))
	}
	return nil
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// cmdTune runs the Section 5.1 category-count selection.
func cmdTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	db := fs.String("db", "", "database directory")
	method := fs.String("method", "me", "me, el, or kmeans (exact has no category count)")
	sparse := fs.Bool("sparse", true, "sparse suffix tree")
	eps := fs.Float64("eps", 10, "distance threshold for the trial queries")
	countsStr := fs.String("counts", "5,10,20,40,80,160", "candidate category counts")
	queries := fs.Int("queries", 5, "number of sample queries")
	wt := fs.Float64("wt", 1, "weight of query seconds")
	ws := fs.Float64("ws", 0.001, "weight of index KB")
	seed := fs.Int64("seed", 1, "query sampling seed")
	fs.Parse(args)
	if *db == "" {
		return fmt.Errorf("tune: -db required")
	}
	m, err := parseMethod(*method)
	if err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	if m == seqdb.MethodExact {
		return errors.New("tune: method exact has no category count to select")
	}
	var counts []int
	for _, fld := range strings.Split(*countsStr, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(fld))
		if err != nil || n < 1 {
			return fmt.Errorf("tune: bad count %q", fld)
		}
		counts = append(counts, n)
	}
	d, err := seqdb.Open(*db)
	if err != nil {
		return err
	}
	defer d.Close()
	// Sample queries from the database itself.
	ids := d.SequenceIDs()
	if len(ids) == 0 {
		return fmt.Errorf("tune: empty database")
	}
	rng := rand.New(rand.NewSource(*seed))
	var qs [][]float64
	for len(qs) < *queries {
		vals := d.Values(ids[rng.Intn(len(ids))])
		n := 20
		if n > len(vals) {
			n = len(vals)
		}
		start := rng.Intn(len(vals) - n + 1)
		qs = append(qs, append([]float64(nil), vals[start:start+n]...))
	}
	best, measures, err := d.SelectCategories(
		seqdb.IndexSpec{Method: m, Sparse: *sparse}, counts, qs, *eps,
		seqdb.CostModel{Wt: *wt, Ws: *ws})
	if err != nil {
		return err
	}
	fmt.Printf("candidate counts (avg query seconds / index KB):\n")
	for _, meas := range measures {
		marker := " "
		if meas.Count == best {
			marker = "*"
		}
		fmt.Printf(" %s %4d: %.5fs / %.0f KB\n", marker, meas.Count, meas.TimeCost, meas.SpaceCost)
	}
	fmt.Printf("best count for Wt=%g Ws=%g: %d\n", *wt, *ws, best)
	return nil
}

func cmdKNN(args []string) error {
	fs := flag.NewFlagSet("knn", flag.ExitOnError)
	name := fs.String("name", "", "index name")
	k := fs.Int("k", 10, "number of nearest subsequences")
	src := queryFlags(fs)
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("knn: -name required")
	}
	ctx, cancel := queryContext(*src.timeout)
	defer cancel()
	d, c, q, err := src.open("knn")
	if err != nil {
		return err
	}
	var matches []seqdb.Match
	var stats seqdb.SearchStats
	if c != nil {
		defer c.Close()
		matches, stats, err = c.SearchKNNWith(ctx, *src.dbName, *name, q, *k, seqdb.SearchOptions{})
	} else {
		defer d.Close()
		matches, stats, err = d.SearchKNNWith(ctx, *name, q, *k, seqdb.SearchOptions{})
	}
	if err != nil {
		return err
	}
	return printKNN(matches, stats)
}

func printKNN(matches []seqdb.Match, stats seqdb.SearchStats) error {
	fmt.Printf("%d nearest subsequences in %v (cells=%d, lb=%d, pruned=%d)\n",
		len(matches), stats.Elapsed, stats.Cells(), stats.LBCells, stats.EnvelopePruned)
	sort.Slice(matches, func(i, j int) bool { return matches[i].Distance < matches[j].Distance })
	for _, m := range matches {
		fmt.Printf("  %-12s [%4d:%4d) dist=%.3f\n", m.SeqID, m.Start, m.End, m.Distance)
	}
	return nil
}

// dimFlag registers the -dim flag of create and gen.
func dimFlag(fs *flag.FlagSet) *int {
	return fs.Int("dim", 1, "dimension of the points: 1 for values, 2 for planar trajectories, ...")
}

func cmdCreate(args []string) error {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	db := fs.String("db", "", "database directory")
	dim := dimFlag(fs)
	fs.Parse(args)
	if *db == "" {
		return fmt.Errorf("create: -db required")
	}
	d, err := seqdb.CreateDim(*db, *dim)
	if err != nil {
		return err
	}
	defer d.Close()
	if *dim > 1 {
		fmt.Printf("created empty %d-dimensional database in %s\n", *dim, *db)
		return nil
	}
	fmt.Printf("created empty database in %s\n", *db)
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	db := fs.String("db", "", "database directory")
	dim := dimFlag(fs)
	kind := fs.String("kind", "stocks", "stocks or artificial (-dim 1)")
	n := fs.Int("n", 0, "number of sequences (0 = paper default; 50 trajectories)")
	length := fs.Int("len", 0, "sequence length (0 = paper default; 100 points)")
	seed := fs.Int64("seed", 1, "generator seed")
	fs.Parse(args)
	if *db == "" {
		return fmt.Errorf("gen: -db required")
	}
	d, err := seqdb.CreateDim(*db, *dim)
	if err != nil {
		return err
	}
	defer d.Close()

	switch {
	case *dim > 1:
		if err := genTrajectories(d, cmp.Or(*n, 50), cmp.Or(*length, 100), *seed); err != nil {
			return err
		}
		if err := d.Save(); err != nil {
			return err
		}
		fmt.Printf("generated %d trajectories of %d %d-D points into %s\n", d.Len(), cmp.Or(*length, 100), *dim, *db)
		return nil
	case *kind == "stocks":
		data := workload.Stocks(workload.StockConfig{NumSequences: *n, AvgLen: *length, Seed: *seed})
		for i := 0; i < data.Len(); i++ {
			if err := d.Add(data.Seq(i).ID, data.Values(i)); err != nil {
				return err
			}
		}
	case *kind == "artificial":
		count, l := *n, *length
		if count == 0 {
			count = 200
		}
		if l == 0 {
			l = 200
		}
		data := workload.Artificial(workload.ArtificialConfig{NumSequences: count, Len: l, Seed: *seed})
		for i := 0; i < data.Len(); i++ {
			if err := d.Add(data.Seq(i).ID, data.Values(i)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("gen: unknown kind %q", *kind)
	}
	if err := d.Save(); err != nil {
		return err
	}
	st := d.Stats()
	fmt.Printf("generated %d %s sequences (%d elements) into %s\n", st.Sequences, *kind, st.TotalElements, *db)
	return nil
}

// genTrajectories adds n random walks of length points, each starting at a
// uniform point of [0, 20)^d and stepping by a standard normal per
// coordinate.
func genTrajectories(d *seqdb.DB, n, length int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	dim := d.Dim()
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for k := range v {
			v[k] = rng.Float64() * 20
		}
		vals := make([]float64, 0, length*dim)
		for j := 0; j < length; j++ {
			for k := range v {
				v[k] += rng.NormFloat64()
				vals = append(vals, v[k])
			}
		}
		if err := d.Add(fmt.Sprintf("traj-%04d", i), vals); err != nil {
			return err
		}
	}
	return nil
}

func cmdImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	db := fs.String("db", "", "database directory")
	csv := fs.String("csv", "", "CSV file: id,v1,v2,... per line")
	fs.Parse(args)
	if *db == "" || *csv == "" {
		return fmt.Errorf("import: -db and -csv required")
	}
	f, err := os.Open(*csv)
	if err != nil {
		return err
	}
	defer f.Close()
	d, err := seqdb.Create(*db)
	if err != nil {
		return err
	}
	defer d.Close()
	imported, err := d.ImportCSV(f)
	if err != nil {
		return err
	}
	if err := d.Save(); err != nil {
		return err
	}
	fmt.Printf("imported %d sequences into %s\n", imported, *db)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	db := fs.String("db", "", "database directory")
	backend := backendFlag(fs)
	envmode := envelopesFlag(fs)
	fs.Parse(args)
	d, err := openDB(*db, *backend, *envmode)
	if err != nil {
		return err
	}
	defer d.Close()
	st := d.Stats()
	if d.Dim() > 1 {
		fmt.Printf("dimension:      %d\n", d.Dim())
	}
	fmt.Printf("sequences:      %d\n", st.Sequences)
	fmt.Printf("elements:       %d\n", st.TotalElements)
	fmt.Printf("length:         avg %.1f, min %d, max %d\n", st.AvgLen, st.MinLen, st.MaxLen)
	fmt.Printf("values:         [%g, %g], mean %.3f, stddev %.3f\n", st.MinValue, st.MaxValue, st.MeanValue, st.StdDev)
	names := d.Indexes()
	sort.Strings(names)
	for _, name := range names {
		info, err := d.Index(name)
		if err != nil {
			return err
		}
		fmt.Printf("index %q: method=%s cats=%d sparse=%v window=%d encoding=%s size=%dKB nodes=%d leaves=%d\n",
			name, info.Spec.Method, info.Spec.Categories, info.Spec.Sparse, info.Spec.Window,
			info.Spec.Encoding, info.SizeBytes/1024, info.Nodes, info.Leaves)
	}
	// Counters are near zero on a fresh handle; the interesting numbers come
	// from a long-lived daemon via `query -addr`. The shard count is static.
	for _, ps := range d.PoolStats() {
		var hits, misses, evictions uint64
		for _, sh := range ps.Shards {
			hits += sh.Hits
			misses += sh.Misses
			evictions += sh.Evictions
		}
		fmt.Printf("pool  %q: shards=%d hits=%d misses=%d evictions=%d\n",
			ps.Index, len(ps.Shards), hits, misses, evictions)
	}
	return nil
}

func cmdIndex(args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	db := fs.String("db", "", "database directory")
	name := fs.String("name", "", "index name")
	indexSpec := indexFlags(fs)
	backend := backendFlag(fs)
	envmode := envelopesFlag(fs)
	fs.Parse(args)
	if *db == "" || *name == "" {
		return fmt.Errorf("index: -db and -name required")
	}
	spec, err := indexSpec()
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	d, err := openDB(*db, *backend, *envmode)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.BuildIndex(*name, spec); err != nil {
		return err
	}
	info, err := d.Index(*name)
	if err != nil {
		return err
	}
	fmt.Printf("built index %q: %d KB, %d leaves\n", *name, info.SizeBytes/1024, info.Leaves)
	return nil
}

func cmdDrop(args []string) error {
	fs := flag.NewFlagSet("drop", flag.ExitOnError)
	db := fs.String("db", "", "database directory")
	name := fs.String("name", "", "index name")
	fs.Parse(args)
	d, err := openDB(*db, "", "")
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.DropIndex(*name); err != nil {
		return err
	}
	fmt.Printf("dropped index %q\n", *name)
	return nil
}

func cmdQuery(args []string, useIndex bool) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	name := fs.String("name", "", "index name (query only)")
	eps := fs.Float64("eps", 0, "distance threshold")
	limit := fs.Int("limit", 20, "max matches to print")
	src := queryFlags(fs)
	fs.Parse(args)
	if useIndex && *name == "" {
		return fmt.Errorf("query: -name required (or use the scan subcommand)")
	}
	ctx, cancel := queryContext(*src.timeout)
	defer cancel()
	d, c, q, err := src.open("query")
	if err != nil {
		return err
	}
	var matches []seqdb.Match
	var stats seqdb.SearchStats
	switch {
	case c != nil:
		defer c.Close()
		if useIndex {
			matches, stats, err = c.SearchWith(ctx, *src.dbName, *name, q, *eps, seqdb.SearchOptions{})
		} else {
			matches, stats, err = c.SeqScan(ctx, *src.dbName, q, *eps)
		}
	case useIndex:
		defer d.Close()
		matches, stats, err = d.SearchWith(ctx, *name, q, *eps, seqdb.SearchOptions{})
	default:
		defer d.Close()
		matches, stats, err = d.SeqScanCtx(ctx, q, *eps)
	}
	if err != nil {
		return err
	}
	return printMatches(matches, stats, *limit)
}

// querySource holds the flags query, scan and knn share: where to search
// (-db, or a twsearchd at -addr) and the query (-q values, or a -from cut
// of the local database).
type querySource struct {
	db, addr, dbName, backend, envmode, q, from *string
	start, qlen                                 *int
	timeout                                     *time.Duration
}

// queryFlags registers the query flags on fs.
func queryFlags(fs *flag.FlagSet) *querySource {
	return &querySource{
		db:      fs.String("db", "", "database directory"),
		addr:    fs.String("addr", "", "twsearchd address for remote mode (requires -q)"),
		dbName:  fs.String("dbname", "", "database name on the server (remote mode; empty = sole db)"),
		backend: backendFlag(fs),
		envmode: envelopesFlag(fs),
		q:       fs.String("q", "", "query values: v1,v2,..."),
		from:    fs.String("from", "", "take the query from this sequence id"),
		start:   fs.Int("start", 0, "query start within -from (0-based)"),
		qlen:    fs.Int("len", 20, "query length within -from"),
		timeout: fs.Duration("timeout", 0, "abort the search after this long (0 = none)"),
	}
}

// open opens the database cmd searches, or with -addr dials the server that
// mounts it, and reads the query. Remote mode needs -q: the server does not
// expose -from cuts.
func (s *querySource) open(cmd string) (*seqdb.DB, *client.Client, []float64, error) {
	if *s.addr != "" {
		if *s.q == "" {
			return nil, nil, nil, fmt.Errorf("%s: remote mode needs -q (the server does not expose -from cuts)", cmd)
		}
		q, err := parseQueryValues(*s.q)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", cmd, err)
		}
		c, err := client.Dial(*s.addr)
		return nil, c, q, err
	}
	if *s.db == "" {
		return nil, nil, nil, fmt.Errorf("%s: -db required (or -addr with -q)", cmd)
	}
	d, err := openDB(*s.db, *s.backend, *s.envmode)
	if err != nil {
		return nil, nil, nil, err
	}
	var q []float64
	switch {
	case *s.q != "":
		q, err = parseQueryValues(*s.q)
	case *s.from != "":
		q, err = cutQuery(d, *s.from, *s.start, *s.qlen)
	default:
		err = errors.New("need -q or -from")
	}
	if err != nil {
		d.Close()
		return nil, nil, nil, fmt.Errorf("%s: %w", cmd, err)
	}
	return d, nil, q, nil
}

func printMatches(matches []seqdb.Match, stats seqdb.SearchStats, limit int) error {
	fmt.Printf("%d matches in %v (cells=%d, candidates=%d, nodes=%d, pages=%d, lb=%d, pruned=%d)\n",
		len(matches), stats.Elapsed, stats.Cells(), stats.Candidates, stats.NodesVisited, stats.PagesRead,
		stats.LBCells, stats.EnvelopePruned)
	sort.Slice(matches, func(i, j int) bool { return matches[i].Distance < matches[j].Distance })
	for i, m := range matches {
		if i >= limit {
			fmt.Printf("... and %d more\n", len(matches)-limit)
			break
		}
		fmt.Printf("  %-12s [%4d:%4d) dist=%.3f\n", m.SeqID, m.Start, m.End, m.Distance)
	}
	return nil
}
