package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func tinyConfig(t *testing.T) (Config, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	return Config{Scale: 0.04, Queries: 2, Dir: t.TempDir(), Seed: 42, Out: &buf}, &buf
}

func TestTable1Shapes(t *testing.T) {
	cfg, buf := tinyConfig(t)
	res, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(CategoryCounts) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.ST.InlineKB == 0 || res.DatabaseKB == 0 {
		t.Fatal("zero sizes")
	}
	for _, r := range res.Rows {
		// Paper shape: ST is the largest in the inline model (equal only
		// when the categorization is effectively lossless at tiny scale);
		// sparse is smaller than dense at the same category count.
		if r.STcME.InlineKB > res.ST.InlineKB {
			t.Errorf("cats=%d: STc-ME inline %d > ST %d", r.Categories, r.STcME.InlineKB, res.ST.InlineKB)
		}
		if r.SSTcME.Leaves >= r.STcME.Leaves {
			t.Errorf("cats=%d: sparse leaves %d >= dense %d", r.Categories, r.SSTcME.Leaves, r.STcME.Leaves)
		}
		if r.SSTcEL.Leaves >= r.STcEL.Leaves {
			t.Errorf("cats=%d: sparse EL leaves %d >= dense %d", r.Categories, r.SSTcEL.Leaves, r.STcEL.Leaves)
		}
	}
	// Sparse index grows with category count (more run breaks).
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.SSTcME.Leaves > last.SSTcME.Leaves {
		t.Errorf("SSTc-ME leaves shrank with categories: %d -> %d", first.SSTcME.Leaves, last.SSTcME.Leaves)
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("no formatted output")
	}
	// The inline column is derived from the file's counters. These are the
	// sizes of the files the retired inline layout wrote for three cells of
	// this configuration, measured at the last commit that could write them
	// (PR 21): the derivation must stay within a page of each.
	for _, cell := range []struct {
		name       string
		got, wrote int64
	}{
		{"ST", res.ST.InlineKB, 2516},
		{"STc-ME-10", res.Rows[0].STcME.InlineKB, 1628},
		{"SSTc-ME-80", res.Rows[3].SSTcME.InlineKB, 1184},
	} {
		if d := cell.got - cell.wrote; d < -4 || d > 4 {
			t.Errorf("%s: derived inline size %d KB, the inline file was %d KB", cell.name, cell.got, cell.wrote)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	cfg, buf := tinyConfig(t)
	res, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(CategoryCounts) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		for _, a := range []AlgoResult{r.STcEL, r.STcME, r.SSTcEL, r.SSTcME} {
			if a.FilterCells == 0 {
				t.Fatalf("cats=%d: zero filter cells", r.Categories)
			}
		}
	}
	if !strings.Contains(buf.String(), "SimSearch-ST:") {
		t.Error("missing ST line")
	}
}

func TestTable3Shapes(t *testing.T) {
	cfg, buf := tinyConfig(t)
	rows, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(EpsThresholds) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		// Answer counts grow with eps, and all engines agree on them.
		if r.Scan.Answers != r.SST10.Answers || r.Scan.Answers != r.SST20.Answers ||
			r.Scan.Answers != r.SST80.Answers {
			t.Fatalf("eps=%v: answer counts disagree: scan %v sst %v/%v/%v",
				r.Eps, r.Scan.Answers, r.SST10.Answers, r.SST20.Answers, r.SST80.Answers)
		}
		if i > 0 && r.Scan.Answers < rows[i-1].Scan.Answers {
			t.Errorf("answers shrank as eps grew")
		}
		// The paper baseline always does at least as much table work as the
		// abandoning scan, and the index filter does less than the paper
		// baseline.
		if r.ScanFull.FilterCells < r.Scan.FilterCells {
			t.Errorf("eps=%v: full scan cheaper than pruned scan", r.Eps)
		}
		if r.SST80.Cells() >= r.ScanFull.Cells() {
			t.Errorf("eps=%v: SST80 cells %v >= paper baseline %v", r.Eps, r.SST80.Cells(), r.ScanFull.Cells())
		}
		// The baseline's closed form against the FilterCells that the
		// no-abandon scan, since deleted, counted on this data.
		if r.ScanFull.FilterCells != 11652283.5 {
			t.Errorf("eps=%v: paper baseline %v cells, the full scan counted 11652283.5", r.Eps, r.ScanFull.FilterCells)
		}
	}
	if !strings.Contains(buf.String(), "Table 3") {
		t.Error("no formatted output")
	}
	data, queries := cfg.stockWorkload()
	if _, err := fullScanCells(data, queries[0], 0); err == nil {
		t.Error("the closed form accepted a warping window")
	}
}

func TestFiguresShapes(t *testing.T) {
	cfg, buf := tinyConfig(t)
	rows4, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows4) != len(Figure4Lengths) {
		t.Fatalf("fig4 rows = %d", len(rows4))
	}
	// Work grows with sequence length for the quadratic baseline.
	if rows4[len(rows4)-1].ScanFull.FilterCells <= rows4[0].ScanFull.FilterCells {
		t.Error("fig4: baseline work did not grow with length")
	}
	// As in TestTable3Shapes, on one artificial point.
	if got := rows4[0].ScanFull.FilterCells; got != 2733600 {
		t.Errorf("fig4 len 200: paper baseline %v cells, the full scan counted 2733600", got)
	}

	rows5, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows5) != len(Figure5Counts) {
		t.Fatalf("fig5 rows = %d", len(rows5))
	}
	if rows5[len(rows5)-1].ScanFull.FilterCells <= rows5[0].ScanFull.FilterCells {
		t.Error("fig5: baseline work did not grow with sequence count")
	}
	for _, r := range append(rows4, rows5...) {
		if r.SST.Answers != r.Scan.Answers {
			t.Fatalf("x=%d: index answers %v != scan %v", r.X, r.SST.Answers, r.Scan.Answers)
		}
	}
	if !strings.Contains(buf.String(), "Figure 4") || !strings.Contains(buf.String(), "Figure 5") {
		t.Error("missing figure output")
	}
}

func TestAblations(t *testing.T) {
	cfg, buf := tinyConfig(t)
	sparseRows, err := AblationSparse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sparseRows {
		if r.SparseSize.Leaves >= r.DenseSize.Leaves {
			t.Errorf("cats=%d: sparse not smaller", r.Categories)
		}
		if r.SparseRatio <= 0 || r.SparseRatio >= 1 {
			t.Errorf("cats=%d: compaction ratio %v out of (0,1)", r.Categories, r.SparseRatio)
		}
		if r.Sparse.Answers != r.Dense.Answers {
			t.Errorf("cats=%d: sparse answers differ from dense", r.Categories)
		}
	}

	pruneRows, err := AblationPruning(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pruneRows {
		if r.Pruned.Answers != r.Unpruned.Answers {
			t.Errorf("eps=%v: pruning changed answers", r.Eps)
		}
		if r.Unpruned.NodesViews < r.Pruned.NodesViews {
			t.Errorf("eps=%v: pruning increased node visits", r.Eps)
		}
	}

	winRows, err := AblationWindow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Narrower windows can only shrink the answer set, and the envelope
	// cascade may change work but never answers.
	for i, r := range winRows {
		if i > 0 && r.Result.Answers > winRows[i-1].Result.Answers {
			t.Errorf("window %d has more answers than %d", r.Window, winRows[i-1].Window)
		}
		if r.Result.Answers != r.NoEnvelope.Answers {
			t.Errorf("window %d: envelope cascade changed answers: %v vs %v",
				r.Window, r.Result.Answers, r.NoEnvelope.Answers)
		}
		if r.Result.FilterCells > r.NoEnvelope.FilterCells {
			t.Errorf("window %d: envelope cascade increased filter work: %v > %v",
				r.Window, r.Result.FilterCells, r.NoEnvelope.FilterCells)
		}
	}

	poolRows, err := AblationBufferPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Bigger pools never read more pages.
	for i := 1; i < len(poolRows); i++ {
		if poolRows[i].Result.PagesRead > poolRows[i-1].Result.PagesRead {
			t.Errorf("pool %d pages read %v > pool %d's %v",
				poolRows[i].PoolPages, poolRows[i].Result.PagesRead,
				poolRows[i-1].PoolPages, poolRows[i-1].Result.PagesRead)
		}
	}
	if !strings.Contains(buf.String(), "Ablation") {
		t.Error("no ablation output")
	}
}

func TestAblationQueryLength(t *testing.T) {
	cfg, buf := tinyConfig(t)
	rows, err := AblationQueryLength(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.SST.Answers != r.Scan.Answers {
			t.Fatalf("|Q|=%d: answer counts disagree", r.QueryLen)
		}
		if i > 0 && r.Scan.FilterCells <= rows[i-1].Scan.FilterCells {
			t.Errorf("scan work did not grow with |Q| (%d -> %d)", rows[i-1].QueryLen, r.QueryLen)
		}
	}
	if !strings.Contains(buf.String(), "query length") {
		t.Error("no formatted output")
	}
}

func TestArtificialWorkloadTables(t *testing.T) {
	cfg, buf := tinyConfig(t)
	cfg.Workload = WorkloadArtificial
	res, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same shape conclusions as the stock workload ("similar conclusions
	// from experiments on the artificial sequences").
	for _, r := range res.Rows {
		if r.STcME.InlineKB > res.ST.InlineKB {
			t.Errorf("artificial cats=%d: STc > ST", r.Categories)
		}
		if r.SSTcME.Leaves >= r.STcME.Leaves {
			t.Errorf("artificial cats=%d: sparse not smaller", r.Categories)
		}
	}
	rows3, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows3 {
		if r.Scan.Answers != r.SST20.Answers {
			t.Fatalf("artificial eps=%v: answers disagree", r.Eps)
		}
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("no output")
	}
}

func TestRun(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-scale", "0.04", "-queries", "2", "-only", "t1,t3,f4", "-dir", t.TempDir()}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"Table 1:", "Table 3:", "Figure 4:"} {
		if !strings.Contains(buf.String(), h) {
			t.Errorf("no %q in the output", h)
		}
	}
	if strings.Contains(buf.String(), "Table 2:") {
		t.Error("ran a table -only did not ask for")
	}
}

func TestRunRefusesUnknownSection(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-only", "t4"}, &buf)
	if !errors.Is(err, errUsage) {
		t.Fatalf("-only t4: got %v, want a usage error", err)
	}
	if buf.Len() != 0 {
		t.Errorf("-only t4 printed %q", buf.String())
	}
}
