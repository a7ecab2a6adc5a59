package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func tempFile(t *testing.T) *File {
	t.Helper()
	pf, err := CreateFile(filepath.Join(t.TempDir(), "pages.bin"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return pf
}

func TestFileCreateOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	pf, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if pf.NumPages() != 1 {
		t.Fatalf("new file has %d pages, want 1 (meta)", pf.NumPages())
	}
	buf := make([]byte, PageSize)
	copy(buf, "hello pages")
	id, err := pf.AppendPages(buf)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("first appended page = %d, want 1", id)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	pf2, err := OpenFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	if pf2.NumPages() != 2 {
		t.Fatalf("reopened file has %d pages, want 2", pf2.NumPages())
	}
	got := make([]byte, PageSize)
	if err := pf2.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("page content mismatch after reopen")
	}
}

func TestFileBoundsAndModes(t *testing.T) {
	pf := tempFile(t)
	buf := make([]byte, PageSize)
	if err := pf.ReadPage(99, buf); err == nil {
		t.Error("out-of-range read accepted")
	}
	if err := pf.ReadPage(0, make([]byte, 10)); err == nil {
		t.Error("short buffer accepted")
	}

	path := filepath.Join(t.TempDir(), "ro.bin")
	pfw, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pfw.Close()
	ro, err := OpenFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := ro.SetMeta([]byte("x")); err == nil {
		t.Error("SetMeta on read-only file accepted")
	}
}

// TestReadPageOfCutFile: a page the file held when it was opened but no
// longer holds whole reads as io.ErrUnexpectedEOF — a page that comes up
// short is not the end of anything — and, like a read past the last page,
// as ErrRead.
func TestReadPageOfCutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cut.bin")
	pfw, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pfw.AppendPages(make([]byte, 3*PageSize)); err != nil {
		t.Fatal(err)
	}
	pfw.Close()
	pf, err := OpenFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if err := os.Truncate(path, 2*PageSize+100); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for _, id := range []PageID{2, 3} {
		if err := pf.ReadPage(id, buf); !errors.Is(err, io.ErrUnexpectedEOF) || !errors.Is(err, ErrRead) {
			t.Errorf("page %d of a cut file: %v, want ErrRead and io.ErrUnexpectedEOF", id, err)
		}
	}
	if err := pf.ReadPage(4, buf); !errors.Is(err, ErrRead) {
		t.Errorf("page past the end: %v, want ErrRead", err)
	}
	if err := pf.ReadPage(1, buf); err != nil {
		t.Errorf("a page the cut left whole: %v", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.bin")
	if err := os.WriteFile(path, bytes.Repeat([]byte("x"), PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, true); err == nil {
		t.Fatal("garbage file accepted")
	}
	if err := os.WriteFile(path, []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, true); err == nil {
		t.Fatal("short file accepted")
	}
}

func TestMetaRoundTrip(t *testing.T) {
	pf := tempFile(t)
	blob := []byte("root=42;symbols=7")
	if err := pf.SetMeta(blob); err != nil {
		t.Fatal(err)
	}
	got, err := pf.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("meta = %q, want %q", got, blob)
	}
	if err := pf.SetMeta(make([]byte, PageSize)); err == nil {
		t.Error("oversized meta accepted")
	}
	// Empty meta on a fresh file.
	pf2 := tempFile(t)
	got2, err := pf2.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 0 {
		t.Fatalf("fresh meta = %q, want empty", got2)
	}
}

// fillPages appends n pages to pf, page k of them holding byte k at offset
// 0, and returns their ids.
func fillPages(t testing.TB, pf *File, n int) []PageID {
	t.Helper()
	buf := make([]byte, n*PageSize)
	for k := 0; k < n; k++ {
		buf[k*PageSize] = byte(k)
	}
	first, err := pf.AppendPages(buf)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]PageID, n)
	for k := range ids {
		ids[k] = first + PageID(k)
	}
	return ids
}

func TestAppendPages(t *testing.T) {
	pf := tempFile(t)
	ids := fillPages(t, pf, 3)
	if ids[0] != 1 || pf.NumPages() != 4 {
		t.Fatalf("first id %d, %d pages; want 1, 4", ids[0], pf.NumPages())
	}
	buf := make([]byte, PageSize)
	if err := pf.ReadPage(ids[2], buf); err != nil || buf[0] != 2 {
		t.Fatalf("page 3 reads %d, %v", buf[0], err)
	}
	if _, err := pf.AppendPages(make([]byte, PageSize+1)); err == nil {
		t.Error("a partial page was appended")
	}
	pf.Close()
	ro, err := OpenFile(pf.Path(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := ro.AppendPages(buf); err == nil || ro.NumPages() != 4 {
		t.Errorf("AppendPages on a read-only file: err %v, %d pages; want an error and 4 pages", err, ro.NumPages())
	}
}

// TestPoolSizedByFile: a pool's frame maps are sized by the pages its file
// has, not by a capacity far past them, which an index record may carry.
func TestPoolSizedByFile(t *testing.T) {
	pf := tempFile(t)
	fillPages(t, pf, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewPool(pf, 1<<22)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("a pool of %d pages over a file of %d allocated %d bytes", 1<<22, pf.NumPages(), grew)
	}
}

func TestPoolHitMissEvict(t *testing.T) {
	pf := tempFile(t)
	ids := fillPages(t, pf, 3) // three pages, capacity two
	pool, err := NewPool(pf, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		fr, err := pool.get(id)
		if err != nil {
			t.Fatal(err)
		}
		fr.release()
	}
	// Page ids[0] was evicted; re-fetching it is a miss with the same
	// content.
	fr, err := pool.get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data()[0] != 0 || fr.ID() != ids[0] {
		t.Fatalf("evicted page came back as %d holding %d", fr.ID(), fr.Data()[0])
	}
	fr.release()
	st := pool.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions recorded")
	}
	if st.Misses != 4 {
		t.Errorf("misses = %d, want 4", st.Misses)
	}
	// Immediate re-get is a hit.
	fr, err = pool.get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	fr.release()
	if pool.Stats().Hits != 1 {
		t.Error("re-get did not hit")
	}
}

// A pinned frame is never evicted; a read that finds its whole stripe
// pinned is served from a frame beyond capacity, and the stripe shrinks
// back once the pins are gone.
func TestPoolOverflowsWhenFullyPinned(t *testing.T) {
	pf := tempFile(t)
	ids := fillPages(t, pf, 3)
	pool, err := NewPool(pf, 1)
	if err != nil {
		t.Fatal(err)
	}
	var held []*Frame
	for k, id := range ids {
		fr, err := pool.get(id)
		if err != nil {
			t.Fatalf("Get with %d frames pinned: %v", k, err)
		}
		held = append(held, fr)
	}
	for k, fr := range held {
		if fr.Data()[0] != byte(k) {
			t.Fatalf("pinned page %d was overwritten: holds %d", fr.ID(), fr.Data()[0])
		}
	}
	if st := pool.Stats(); st.Overflows != 2 || st.Evictions != 0 || pool.PinnedCount() != 3 {
		t.Fatalf("stats %+v with %d pinned; want 2 overflows, no evictions, 3 pinned", st, pool.PinnedCount())
	}
	for _, fr := range held {
		fr.release()
	}
	if n := len(pool.shards[0].frames); n != 1 || pool.PinnedCount() != 0 {
		t.Fatalf("after release the stripe holds %d frames (%d pinned), want its capacity of 1", n, pool.PinnedCount())
	}
	if st := pool.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want the 2 overflow frames", st.Evictions)
	}
}

// A miss on a full shard reuses the frame it evicts — buffer, Frame and
// release closure — so a steady stream of misses allocates nothing; a pinned
// frame is never the one reused; and a page that fails to read hands its
// frame back clean.
func TestPoolRecyclesFrames(t *testing.T) {
	pf := tempFile(t)
	const capacity = 16
	ids := fillPages(t, pf, 2*capacity)
	pool, err := NewPool(pf, capacity)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		for k, id := range ids {
			page, release, err := pool.View(id)
			if err != nil || page[0] != byte(k) {
				t.Fatalf("page %d: holds %d, %v", id, page[0], err)
			}
			release()
		}
	}
	cycle() // warm-up: every shard grows to its capacity
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("a cycle of %d misses allocates %v times, want 0", len(ids), allocs)
	}
	if st := pool.Stats(); st.Hits != 0 || st.Evictions != st.Misses-capacity {
		t.Errorf("stats %+v: want no hits and an eviction per miss past the first %d", st, capacity)
	}

	// One frame of capacity, held: the misses beside it overflow, and the
	// second reuses the first's frame, never the pinned one.
	one, err := NewPool(pf, 1)
	if err != nil {
		t.Fatal(err)
	}
	held, err := one.get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	first, err := one.get(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	first.release()
	second, err := one.get(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	if second != first || second == held || second.ID() != ids[2] || second.Data()[0] != 2 {
		t.Errorf("the miss after an eviction got frame %p holding page %d (evicted %p, pinned %p)", second, second.ID(), first, held)
	}
	if held.ID() != ids[0] || held.Data()[0] != 0 {
		t.Errorf("the pinned frame now holds page %d, first byte %d", held.ID(), held.Data()[0])
	}
	second.release()

	// A read that fails: the frame goes back to being the spare, nothing
	// stays pinned or cached under the failed id, and the next miss gets
	// the frame with the right bytes in it.
	if err := os.Truncate(pf.Path(), int64(ids[len(ids)-1])*PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := one.get(ids[len(ids)-1]); err == nil {
		t.Fatal("reading a page past the end of the truncated file succeeded")
	}
	if n := one.PinnedCount(); n != 1 {
		t.Errorf("%d frames pinned after the failed read, want only the held one", n)
	}
	third, err := one.get(ids[3])
	if err != nil {
		t.Fatal(err)
	}
	if third != first || third.Data()[0] != 3 {
		t.Errorf("the miss after a failed read got frame %p holding %d, want the spare %p holding 3", third, third.Data()[0], first)
	}
	third.release()
	held.release()
	if n := one.PinnedCount(); n != 0 {
		t.Errorf("%d frames pinned at the end", n)
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	pf := tempFile(t)
	ids := fillPages(t, pf, 1)
	pool, _ := NewPool(pf, 2)
	fr, err := pool.get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	fr.release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	fr.release()
}

func TestNewPoolBadCapacity(t *testing.T) {
	pf := tempFile(t)
	if _, err := NewPool(pf, 0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
}

// Property: any interleaving of pins and releases through a small pool —
// including more pins than frames — reads exactly the file's bytes, and
// once everything is released the pool is back within capacity: it is a
// transparent cache.
func TestQuickPoolTransparency(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	f := func() bool {
		pf := mustCreate(t)
		defer pf.Close()
		ids := fillPages(t, pf, 1+rng.Intn(10))
		capacity := 1 + rng.Intn(4)
		pool, err := NewPool(pf, capacity)
		if err != nil {
			return false
		}
		var held []*Frame
		for op := 0; op < 50; op++ {
			if len(held) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(held))
				held[k].release()
				held = append(held[:k], held[k+1:]...)
				continue
			}
			k := rng.Intn(len(ids))
			fr, err := pool.get(ids[k])
			if err != nil || fr.Data()[0] != byte(k) {
				return false
			}
			held = append(held, fr)
		}
		for _, fr := range held {
			fr.release()
		}
		frames := 0
		for i := range pool.shards {
			frames += len(pool.shards[i].frames)
		}
		return pool.PinnedCount() == 0 && frames <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func mustCreate(t *testing.T) *File {
	t.Helper()
	pf, err := CreateFile(filepath.Join(t.TempDir(), "q.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

func TestFileSyncAndPath(t *testing.T) {
	pf := tempFile(t)
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	if pf.Path() == "" {
		t.Fatal("empty path")
	}
	// Syncing a read-only file is not an error.
	path := filepath.Join(t.TempDir(), "ro.bin")
	w, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	ro, err := OpenFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := ro.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	pf := tempFile(t)
	ids := fillPages(t, pf, 1)
	pf.ReadPage(ids[0], make([]byte, PageSize))
	if pf.PagesRead() != 1 {
		t.Fatalf("counters: read %d, want 1", pf.PagesRead())
	}
}

// TestPoolSharding checks the capacity split and the per-shard stats view.
func TestPoolSharding(t *testing.T) {
	pf := tempFile(t)
	const pages = 40
	ids := fillPages(t, pf, pages)
	pool, err := NewPool(pf, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pool.shards); got != 8 {
		t.Fatalf("%d shards, want 8", got)
	}
	// Small pools collapse to one shard per frame.
	small, err := NewPool(pf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(small.shards); got != 3 {
		t.Fatalf("%d shards at capacity 3, want 3", got)
	}
	for _, id := range ids {
		fr, err := pool.get(id)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data()[0] != byte(id-1) {
			t.Fatalf("page %d holds %d", id, fr.Data()[0])
		}
		fr.release()
	}
	agg := pool.Stats()
	if agg.Misses != pages {
		t.Fatalf("misses = %d, want %d", agg.Misses, pages)
	}
	shards := pool.ShardStats()
	if len(shards) != len(pool.shards) {
		t.Fatalf("ShardStats len %d != %d shards", len(shards), len(pool.shards))
	}
	var sum PoolStats
	for _, s := range shards {
		sum.Add(s)
	}
	if sum != agg {
		t.Fatalf("shard sum %+v != aggregate %+v", sum, agg)
	}
}

// TestPoolConcurrentReaders hammers one pool from many goroutines and checks
// every read observes the bytes written, with no leaked pins. Run under
// -race this is the storage half of the concurrent-search contract.
func TestPoolConcurrentReaders(t *testing.T) {
	pf := tempFile(t)
	const pages = 64
	ids := fillPages(t, pf, pages)
	pool, err := NewPool(pf, 16) // quarter of the pages: constant eviction
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				id := ids[(seed*31+i*7)%pages]
				fr, err := pool.get(id)
				if err != nil {
					errs <- err
					return
				}
				if fr.Data()[0] != byte(id-1) {
					errs <- fmt.Errorf("page %d holds %d", id, fr.Data()[0])
					fr.release()
					return
				}
				fr.release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("%d frames left pinned", n)
	}
	st := pool.Stats()
	if st.Hits+st.Misses != workers*400 {
		t.Fatalf("hits %d + misses %d != %d gets", st.Hits, st.Misses, workers*400)
	}
}
