package shard

import (
	"cmp"
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
)

// fakeBackend is one shard holding a fixed answer set with precomputed
// distances. Search returns the matches within eps in local (sequence,
// start, end) order, mimicking the engine's exact threshold search; err
// makes every call fail, exercising mid-stream shard loss while the other
// shards succeed. gate and returned let a test order the shards' outcomes
// instead of racing them.
type fakeBackend struct {
	ms  []Match // local sequence numbers, any order
	err error   // returned by every Search/Scan when set
	// gate, when set, holds a call until it is closed; a call whose context
	// is canceled first gives up with the context's error, as a search that
	// was still running would.
	gate <-chan struct{}
	// returned, when set, is closed as the call returns (single-call tests
	// only).
	returned chan struct{}
	// boundErr is returned by DistanceBound when set.
	boundErr error
}

func (b *fakeBackend) Search(ctx context.Context, index string, q []float64, eps float64, fn func(Match) bool) (Stats, error) {
	if b.returned != nil {
		defer close(b.returned)
	}
	if b.gate != nil {
		select {
		case <-b.gate:
		case <-ctx.Done():
			return Stats{}, ctx.Err()
		}
	}
	if b.err != nil {
		return Stats{NodesVisited: 1}, b.err
	}
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	var out []Match
	for _, m := range b.ms {
		if m.Distance <= eps {
			out = append(out, m)
		}
	}
	slices.SortFunc(out, func(a, b Match) int {
		return cmp.Or(cmp.Compare(a.Seq, b.Seq), cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
	})
	for _, m := range out {
		if !fn(m) {
			break
		}
	}
	return Stats{NodesVisited: 1, Answers: uint64(len(out))}, nil
}

func (b *fakeBackend) Scan(ctx context.Context, q []float64, eps float64, fn func(Match) bool) (Stats, error) {
	return b.Search(ctx, "", q, eps, fn)
}

// DistanceBound is the largest distance the fake holds: every one of its
// answers is reachable.
func (b *fakeBackend) DistanceBound(index string, q []float64) (float64, error) {
	if b.boundErr != nil {
		return 0, b.boundErr
	}
	bound := 0.0
	for _, m := range b.ms {
		bound = max(bound, m.Distance)
	}
	return bound, nil
}

func mkCoord(t *testing.T, backends ...*fakeBackend) *Coordinator {
	t.Helper()
	bs := make([]Backend, len(backends))
	ranges := make([]Range, len(backends))
	start := 0
	for i, b := range backends {
		bs[i] = b
		// Each fake covers enough of the numbering for its local Seq values.
		ranges[i] = Range{Start: start, Count: 10}
		start += 10
	}
	c, err := NewCoordinator(bs, ranges, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(nil, nil, 1); err == nil {
		t.Error("no backends should be an error")
	}
	if _, err := NewCoordinator([]Backend{&fakeBackend{}}, []Range{{0, 1}, {1, 1}}, 1); err == nil {
		t.Error("backend/range count mismatch should be an error")
	}
}

func TestSearchMergesInGlobalOrder(t *testing.T) {
	// Shard 1 answers instantly, shard 0 slowly: the merged order must
	// still be shard 0 first because the contiguous numbering puts its
	// sequences first.
	b0 := &fakeBackend{ms: []Match{{SeqID: "a", Seq: 1, Start: 5, End: 9, Distance: 1}, {SeqID: "b", Seq: 2, Start: 0, End: 4, Distance: 2}}}
	b1 := &fakeBackend{ms: []Match{{SeqID: "c", Seq: 0, Start: 3, End: 8, Distance: 0.5}}}
	c := mkCoord(t, b0, b1)

	ms, stats, err := c.Search(context.Background(), "ix", []float64{1, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []Match{
		{SeqID: "a", Seq: 1, Start: 5, End: 9, Distance: 1},
		{SeqID: "b", Seq: 2, Start: 0, End: 4, Distance: 2},
		{SeqID: "c", Seq: 10, Start: 3, End: 8, Distance: 0.5}, // rebased by +10
	}
	if !reflect.DeepEqual(ms, want) {
		t.Errorf("got %v, want %v", ms, want)
	}
	if stats.NodesVisited != 2 {
		t.Errorf("stats merged %d node visits, want 2 (one per shard)", stats.NodesVisited)
	}
	if stats.Elapsed <= 0 {
		t.Error("Elapsed not set to the scatter-gather wall clock")
	}
}

func TestSearchVisitEarlyStop(t *testing.T) {
	b0 := &fakeBackend{ms: []Match{{Seq: 0, Start: 0, End: 2, Distance: 1}, {Seq: 0, Start: 1, End: 3, Distance: 1}}}
	b1 := &fakeBackend{ms: []Match{{Seq: 0, Start: 4, End: 6, Distance: 1}}}
	c := mkCoord(t, b0, b1)

	seen := 0
	_, err := c.SearchVisit(context.Background(), "ix", []float64{1}, 5, func(Match) bool {
		seen++
		return false
	})
	if err != nil {
		t.Fatalf("visitor stop must not surface an error, got %v", err)
	}
	if seen != 1 {
		t.Errorf("visitor ran %d times after stopping, want 1", seen)
	}
}

// TestSearchPartialFailure pins both outcomes of losing shard 1 of 3. A
// shard the failure cancels did not answer, so which siblings count as
// answered depends on whether they had finished — the fakes' gates fix that
// order instead of leaving it to the scheduler.
func TestSearchPartialFailure(t *testing.T) {
	cause := errors.New("disk gone")
	for _, tc := range []struct {
		name     string
		b2Done   bool // shard 2 returns before shard 1 fails
		answered []int
		failed   []int
	}{
		{"siblings answered", true, []int{0, 2}, []int{1}},
		{"sibling still running", false, []int{0}, []int{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b0 := &fakeBackend{ms: []Match{{Seq: 0, Start: 0, End: 2, Distance: 1}}, returned: make(chan struct{})}
			b2 := &fakeBackend{ms: []Match{{Seq: 0, Start: 4, End: 6, Distance: 1}}, returned: make(chan struct{})}
			fail := make(chan struct{})
			b1 := &fakeBackend{err: cause, gate: fail}
			if !tc.b2Done {
				b2.gate = make(chan struct{}) // never opens: only cancellation ends the call
			}
			go func() {
				<-b0.returned
				if tc.b2Done {
					<-b2.returned
				}
				close(fail)
			}()
			c := mkCoord(t, b0, b1, b2)

			var streamed []Match
			_, err := c.SearchVisit(context.Background(), "ix", []float64{1}, 5, func(m Match) bool {
				streamed = append(streamed, m)
				return true
			})
			var pe *PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("want *PartialError, got %v", err)
			}
			if !reflect.DeepEqual(pe.Answered, tc.answered) || !reflect.DeepEqual(pe.Failed, tc.failed) {
				t.Errorf("answered=%v failed=%v, want %v and %v", pe.Answered, pe.Failed, tc.answered, tc.failed)
			}
			if !errors.Is(err, cause) {
				t.Error("errors.Is must see through PartialError to the cause")
			}
			// Delivery is strictly in shard order, so the matches streamed
			// before the failure are exactly shard 0's — an exact prefix of
			// the global answer stream, never a gapped subset.
			if len(streamed) != 1 || streamed[0].Seq != 0 {
				t.Errorf("streamed %v, want exactly shard 0's match", streamed)
			}
		})
	}
}

func TestScanMerges(t *testing.T) {
	b0 := &fakeBackend{ms: []Match{{Seq: 3, Start: 0, End: 2, Distance: 1}}}
	b1 := &fakeBackend{ms: []Match{{Seq: 4, Start: 1, End: 3, Distance: 2}}}
	c := mkCoord(t, b0, b1)
	ms, _, err := c.Scan(context.Background(), []float64{1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].Seq != 3 || ms[1].Seq != 14 {
		t.Errorf("got %v, want seqs 3 and 14", ms)
	}
}

func TestSearchKNNAcrossShards(t *testing.T) {
	// 2 shards, k=3: the nearest three live on both sides, with a distance
	// tie that must resolve by global position.
	b0 := &fakeBackend{ms: []Match{
		{SeqID: "a", Seq: 0, Start: 0, End: 4, Distance: 1.0},
		{SeqID: "a", Seq: 0, Start: 2, End: 6, Distance: 7.0},
	}}
	b1 := &fakeBackend{ms: []Match{
		{SeqID: "b", Seq: 0, Start: 1, End: 5, Distance: 2.0},
		{SeqID: "b", Seq: 1, Start: 0, End: 3, Distance: 2.0},
		{SeqID: "b", Seq: 2, Start: 0, End: 3, Distance: 9.0},
	}}
	c := mkCoord(t, b0, b1)

	ms, stats, err := c.SearchKNN(context.Background(), "ix", []float64{1, 2, 30}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []Match{
		{SeqID: "a", Seq: 0, Start: 0, End: 4, Distance: 1.0},
		{SeqID: "b", Seq: 10, Start: 1, End: 5, Distance: 2.0},
		{SeqID: "b", Seq: 11, Start: 0, End: 3, Distance: 2.0},
	}
	if !reflect.DeepEqual(ms, want) {
		t.Errorf("got %v, want %v", ms, want)
	}
	if stats.Answers != 3 {
		t.Errorf("Answers = %d, want 3", stats.Answers)
	}
}

func TestSearchKNNTieEviction(t *testing.T) {
	// k=2 with three candidates at the same distance: the survivors must be
	// the two earliest in global position order, matching the unsharded
	// engine's stable selection.
	b0 := &fakeBackend{ms: []Match{{SeqID: "x", Seq: 5, Start: 0, End: 2, Distance: 3.0}}}
	b1 := &fakeBackend{ms: []Match{
		{SeqID: "y", Seq: 0, Start: 0, End: 2, Distance: 3.0},
		{SeqID: "y", Seq: 0, Start: 1, End: 3, Distance: 3.0},
	}}
	c := mkCoord(t, b0, b1)
	ms, _, err := c.SearchKNN(context.Background(), "ix", []float64{1, 50}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []Match{
		{SeqID: "x", Seq: 5, Start: 0, End: 2, Distance: 3.0},
		{SeqID: "y", Seq: 10, Start: 0, End: 2, Distance: 3.0},
	}
	if !reflect.DeepEqual(ms, want) {
		t.Errorf("got %v, want %v", ms, want)
	}
}

func TestSearchKNNPartialFailure(t *testing.T) {
	cause := errors.New("leg down")
	b0 := &fakeBackend{ms: []Match{{Seq: 0, Start: 0, End: 2, Distance: 1}}}
	b1 := &fakeBackend{err: cause}
	c := mkCoord(t, b0, b1)
	_, _, err := c.SearchKNN(context.Background(), "ix", []float64{1, 2}, 1)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialError, got %v", err)
	}
	if !reflect.DeepEqual(pe.Failed, []int{1}) {
		t.Errorf("failed=%v, want [1]", pe.Failed)
	}
	if !errors.Is(err, cause) {
		t.Error("errors.Is must see through PartialError to the cause")
	}
}

// TestSearchKNNAboveReachable: with k above every shard's answer count the
// expansion stops at the first round at or past the largest shard bound —
// not the first or the last shard's, which would stop before shard 1's far
// answer — and returns everything there is. A flat query's step is 0, so
// the rounds climb from 1e-9 by fours; each round is one fake call per
// shard.
func TestSearchKNNAboveReachable(t *testing.T) {
	b0 := &fakeBackend{ms: []Match{{Seq: 0, Start: 0, End: 2, Distance: 1}, {Seq: 1, Start: 0, End: 3, Distance: 2}}}
	b1 := &fakeBackend{ms: []Match{{Seq: 0, Start: 1, End: 4, Distance: 1000}}}
	b2 := &fakeBackend{ms: []Match{{Seq: 0, Start: 0, End: 1, Distance: 1}}}
	c := mkCoord(t, b0, b1, b2)
	ms, stats, err := c.SearchKNN(context.Background(), "ix", []float64{5, 5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 || ms[2].Distance != 1000 {
		t.Fatalf("got %v, want all four answers", ms)
	}
	rounds := 0
	for eps := 1e-9; ; eps *= 4 {
		rounds++
		if eps >= 1000 {
			break
		}
	}
	if got := int(stats.NodesVisited) / 3; got != rounds {
		t.Errorf("%d rounds, want %d: the first at or past the largest bound", got, rounds)
	}
}

// A shard that cannot give its bound fails the k-NN before any round runs,
// as a partial failure that names it.
func TestSearchKNNBoundFailure(t *testing.T) {
	cause := errors.New("leg down")
	c := mkCoord(t, &fakeBackend{ms: []Match{{Seq: 0, Start: 0, End: 2, Distance: 1}}}, &fakeBackend{boundErr: cause})
	_, stats, err := c.SearchKNN(context.Background(), "ix", []float64{1, 2}, 1)
	var pe *PartialError
	if !errors.As(err, &pe) || !errors.Is(err, cause) {
		t.Fatalf("want a *PartialError wrapping the cause, got %v", err)
	}
	if len(pe.Answered) != 0 || !reflect.DeepEqual(pe.Failed, []int{1}) || stats.NodesVisited != 0 {
		t.Errorf("answered=%v failed=%v after %d node visits, want none, [1], 0", pe.Answered, pe.Failed, stats.NodesVisited)
	}
}

func TestSearchKNNValidation(t *testing.T) {
	c := mkCoord(t, &fakeBackend{})
	if _, _, err := c.SearchKNN(context.Background(), "ix", []float64{1}, 0); err == nil {
		t.Error("k=0 should be an error")
	}
	if _, _, err := c.SearchKNN(context.Background(), "ix", nil, 1); err == nil {
		t.Error("empty query should be an error")
	}
}

func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := mkCoord(t, &fakeBackend{ms: []Match{{Seq: 0, Start: 0, End: 1, Distance: 0}}})
	_, _, err := c.Search(ctx, "ix", []float64{1}, 5)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// TestOneShardFailsAsItself: over one shard the coordinator returns the
// shard's failure as the shard reported it, with no PartialError around
// it — from a range search, a scan and a k-NN whose bound the shard cannot
// give.
func TestOneShardFailsAsItself(t *testing.T) {
	cause := errors.New("disk gone")
	c := mkCoord(t, &fakeBackend{err: cause, boundErr: cause})
	ctx := context.Background()
	_, _, searchErr := c.Search(ctx, "ix", []float64{1}, 5)
	_, _, scanErr := c.Scan(ctx, []float64{1}, 5)
	_, _, knnErr := c.SearchKNN(ctx, "ix", []float64{1}, 1)
	for name, err := range map[string]error{"search": searchErr, "scan": scanErr, "k-NN": knnErr} {
		if err != cause {
			t.Errorf("%s: %v, want the shard's own error", name, err)
		}
	}
}
