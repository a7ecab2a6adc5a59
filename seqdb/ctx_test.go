package seqdb

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestContextVariantsMatchPlainAPI pins that a live context — cancellable,
// carrying a deadline that never fires — changes nothing: every entry point
// returns exactly what it returns under context.Background().
func TestContextVariantsMatchPlainAPI(t *testing.T) {
	db := newTestDB(t, 10, 60, 11)
	if err := db.BuildIndex("fast", IndexSpec{Method: MethodMaxEntropy, Categories: 10, Sparse: true}); err != nil {
		t.Fatal(err)
	}
	q := append([]float64(nil), db.Values("seq-2")[5:20]...)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()

	want, _, err := search(db, "fast", q, 6)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := db.SearchWith(ctx, "fast", q, 6, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("SearchWith under a live context differs from the background call")
	}

	wantScan, _, err := seqScan(db, q, 6)
	if err != nil {
		t.Fatal(err)
	}
	gotScan, _, err := db.SeqScanCtx(ctx, q, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantScan, gotScan) {
		t.Fatal("SeqScanCtx under a live context differs from the background call")
	}

	wantKNN, _, err := searchKNN(db, "fast", q, 4)
	if err != nil {
		t.Fatal(err)
	}
	gotKNN, _, err := db.SearchKNNWith(ctx, "fast", q, 4, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantKNN, gotKNN) {
		t.Fatal("SearchKNNWith under a live context differs from the background call")
	}
}

// TestContextCancellationAborts checks every entry point honors an
// already-canceled context and reports the context's error.
func TestContextCancellationAborts(t *testing.T) {
	db := newTestDB(t, 10, 60, 12)
	if err := db.BuildIndex("fast", IndexSpec{Method: MethodMaxEntropy, Categories: 10, Sparse: true}); err != nil {
		t.Fatal(err)
	}
	q := append([]float64(nil), db.Values("seq-1")[0:15]...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, _, err := db.SearchWith(ctx, "fast", q, 5, SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchWith err = %v, want Canceled", err)
	}
	if _, err := db.SearchVisitWith(ctx, "fast", q, 5, func(Match) bool { return true }, SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchVisitWith err = %v, want Canceled", err)
	}
	if _, _, err := db.SearchKNNWith(ctx, "fast", q, 3, SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchKNNWith err = %v, want Canceled", err)
	}
	if _, _, err := db.SeqScanCtx(ctx, q, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("SeqScanCtx err = %v, want Canceled", err)
	}

	// Unknown indexes are reported with the typed sentinel regardless of
	// context state.
	if _, _, err := db.SearchWith(context.Background(), "nope", q, 5, SearchOptions{}); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("unknown index err = %v, want ErrNoIndex", err)
	}
}

func TestImportCSVErrorPaths(t *testing.T) {
	db := newTestDB(t, 3, 20, 13)
	before := db.Len()

	// A malformed value must fail the whole import, importing nothing.
	if _, err := db.ImportCSV(strings.NewReader("x,1,2\ny,3,banana\n")); err == nil {
		t.Fatal("malformed value accepted")
	}
	if db.Len() != before {
		t.Fatalf("partial import after malformed value: %d -> %d", before, db.Len())
	}

	// A line with an id but no values is rejected with a line number.
	_, err := db.ImportCSV(strings.NewReader("x,1,2\nlonely\n"))
	if err == nil || !strings.Contains(err.Error(), "need id and at least one value") {
		t.Fatalf("short line err = %v", err)
	}
	if db.Len() != before {
		t.Fatal("partial import after short line")
	}

	// An id colliding with an existing sequence aborts before any rows land.
	if _, err := db.ImportCSV(strings.NewReader("fresh,1,2\nseq-1,3,4\n")); err == nil {
		t.Fatal("duplicate of stored sequence accepted")
	}
	if db.Len() != before || db.Values("fresh") != nil {
		t.Fatal("rows imported despite duplicate id")
	}

	// Duplicates within the CSV itself are caught too.
	if _, err := db.ImportCSV(strings.NewReader("twin,1,2\ntwin,3,4\n")); err == nil {
		t.Fatal("duplicate within CSV accepted")
	}
	if db.Len() != before {
		t.Fatal("rows imported despite in-file duplicate")
	}

	// Importing with indexes present is refused (they would go stale).
	if err := db.BuildIndex("fast", IndexSpec{Method: MethodMaxEntropy, Categories: 5, Sparse: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ImportCSV(strings.NewReader("z,1,2\n")); err == nil {
		t.Fatal("import with live index accepted")
	}

	// After all the failures, a clean import still works once indexes drop.
	if err := db.DropIndex("fast"); err != nil {
		t.Fatal(err)
	}
	n, err := db.ImportCSV(strings.NewReader("z,1,2\n"))
	if err != nil || n != 1 {
		t.Fatalf("clean import after failures: n=%d err=%v", n, err)
	}
}
