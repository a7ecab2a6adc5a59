package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"twsearch/seqdb/client"
)

// readBatchFile parses a batch query file: one query per line, either
//
//	search INDEX EPS v1,v2,...
//	knn    INDEX K   v1,v2,...
//
// Blank lines and lines starting with '#' are skipped. Errors name the
// offending line so a typo in a long query file is findable.
func readBatchFile(path string) ([]client.BatchQuery, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var queries []client.BatchQuery
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("%s:%d: want `search INDEX EPS values` or `knn INDEX K values`, got %d fields", path, lineNo, len(fields))
		}
		q, err := parseQueryValues(fields[3])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
		switch fields[0] {
		case "search":
			eps, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad eps %q", path, lineNo, fields[2])
			}
			queries = append(queries, client.BatchQuery{Index: fields[1], Eps: eps, Query: q})
		case "knn":
			k, err := strconv.Atoi(fields[2])
			if err != nil || k < 1 {
				return nil, fmt.Errorf("%s:%d: bad k %q", path, lineNo, fields[2])
			}
			queries = append(queries, client.BatchQuery{Index: fields[1], K: k, Query: q})
		default:
			return nil, fmt.Errorf("%s:%d: unknown op %q (want search or knn)", path, lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return queries, nil
}

// cmdBatch ships a whole query file to a twsearchd daemon in one
// protocol-v4 batch round-trip and prints one result block per query, in
// file order. A per-query failure (unknown index, bad op) is reported in
// that query's block and turns the exit code nonzero; a batch-wide
// failure keeps the usual exit-code convention — 3 when the -timeout (or
// the server's cap) expired, 4 when the server refused the batch as
// overloaded.
func cmdBatch(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	addr := fs.String("addr", "", "twsearchd address")
	dbName := fs.String("dbname", "", "database name on the server (empty = sole db)")
	file := fs.String("file", "", "query file: one search/knn query per line")
	timeout := fs.Duration("timeout", 0, "abort the whole batch after this long (0 = none)")
	limit := fs.Int("limit", 5, "max matches to print per query")
	fs.Parse(args)
	if *addr == "" || *file == "" {
		return fmt.Errorf("batch: -addr and -file required")
	}
	queries, err := readBatchFile(*file)
	if err != nil {
		return err
	}
	if len(queries) == 0 {
		return fmt.Errorf("batch: no queries in %s", *file)
	}
	ctx, cancel := queryContext(*timeout)
	defer cancel()
	c, err := client.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	results, agg, err := c.Batch(ctx, *dbName, queries)
	if err != nil {
		return err
	}
	failed := 0
	for i, r := range results {
		q := queries[i]
		what := fmt.Sprintf("search %s eps=%g", q.Index, q.Eps)
		if q.K > 0 {
			what = fmt.Sprintf("knn %s k=%d", q.Index, q.K)
		}
		if r.Err != nil {
			failed++
			fmt.Printf("[%d] %s: error: %v\n", i, what, r.Err)
			continue
		}
		fmt.Printf("[%d] %s: %d matches in %v (cells=%d)\n",
			i, what, len(r.Matches), r.Stats.Elapsed, r.Stats.Cells())
		for j, m := range r.Matches {
			if j >= *limit {
				fmt.Printf("    ... and %d more\n", len(r.Matches)-*limit)
				break
			}
			fmt.Printf("    %-12s [%4d:%4d) dist=%.3f\n", m.SeqID, m.Start, m.End, m.Distance)
		}
	}
	fmt.Printf("batch: %d queries in %v (cells=%d, candidates=%d)\n",
		len(results), agg.Elapsed, agg.Cells(), agg.Candidates)
	if failed > 0 {
		return fmt.Errorf("batch: %d of %d queries failed", failed, len(results))
	}
	return nil
}
