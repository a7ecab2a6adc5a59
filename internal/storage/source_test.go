package storage

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// sourceFixture writes a few recognizable pages into a fresh on-disk page
// file and reopens it read-only.
func sourceFixture(t *testing.T, pages int) (*File, [][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "src.bin")
	pf, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < pages; i++ {
		page := make([]byte, PageSize)
		for j := range page {
			page[j] = byte(i*31 + j)
		}
		if _, err := pf.AppendPages(page); err != nil {
			t.Fatal(err)
		}
		want = append(want, page)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := OpenFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	return ro, want
}

// TestPageSourceContract runs every backend through the same checks: views
// return the exact page bytes, release is callable exactly once per view,
// stats count activity, ShardStats sums to Stats, and out-of-range views
// fail cleanly.
func TestPageSourceContract(t *testing.T) {
	const pages = 6
	for _, backend := range []Backend{BackendPool, BackendMmap} {
		t.Run(string(backend), func(t *testing.T) {
			pf, want := sourceFixture(t, pages)
			src, err := NewSource(pf, backend, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			if src.File() != pf {
				t.Fatal("File() does not return the underlying file")
			}
			for i := 0; i < pages; i++ {
				page, release, err := src.View(PageID(i + 1))
				if err != nil {
					t.Fatalf("View(%d): %v", i+1, err)
				}
				if len(page) != PageSize {
					t.Fatalf("View(%d) returned %d bytes", i+1, len(page))
				}
				if !bytes.Equal(page, want[i]) {
					t.Fatalf("View(%d) content differs", i+1)
				}
				release()
			}
			st := src.Stats()
			if st.Hits+st.Misses < pages {
				t.Fatalf("stats count %d views, want >= %d", st.Hits+st.Misses, pages)
			}
			var sum PoolStats
			for _, s := range src.ShardStats() {
				sum.Add(s)
			}
			if sum != st {
				t.Fatalf("ShardStats sum %+v != Stats %+v", sum, st)
			}
			if _, _, err := src.View(PageID(pages + 10)); err == nil {
				t.Fatal("View beyond end accepted")
			}
		})
	}
}

// TestNewSourceSelection: on an unmappable file (in-memory backing) the mmap
// backend falls back to the bounded pool — a re-read is a cache hit, not a
// second physical read — and unknown names are rejected.
func TestNewSourceSelection(t *testing.T) {
	mem, err := CreateMemFile()
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	fillPages(t, mem, 1)

	src, err := NewSource(mem, BackendMmap, 4)
	if err != nil {
		t.Fatalf("mmap over mem backing: %v", err)
	}
	if _, ok := src.(*Pool); !ok {
		t.Fatalf("mmap over mem backing gave %T, want *Pool", src)
	}
	for i := 0; i < 2; i++ {
		page, release, err := src.View(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) != PageSize {
			t.Fatalf("fallback view is %d bytes", len(page))
		}
		release()
	}
	if st := src.Stats(); st.Misses != 1 || st.Hits == 0 {
		t.Fatalf("fallback stats = %+v, want 1 miss then a hit", st)
	}

	if _, err := NewSource(mem, Backend("bogus"), 4); err == nil {
		t.Fatal("bogus backend accepted")
	}
}

// TestMmapSourceZeroCopy: on a real file the mmap backend must actually map
// (this test runs on unix builders) and its views must alias one mapping.
func TestMmapSourceZeroCopy(t *testing.T) {
	pf, want := sourceFixture(t, 3)
	src, err := NewSource(pf, BackendMmap, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ms, ok := src.(*mmapSource)
	if !ok {
		t.Skipf("mmap unavailable here (%T)", src)
	}
	a, ra, err := ms.View(1)
	if err != nil {
		t.Fatal(err)
	}
	b, rb, err := ms.View(1)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("two views of one page do not alias the mapping")
	}
	if !bytes.Equal(a, want[0]) {
		t.Fatal("mapped view content differs")
	}
	ra()
	rb()
	if st := ms.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("mmap stats = %+v, want 2 hits", st)
	}
}

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"", BackendMmap, true},
		{"pool", BackendPool, true},
		{"mmap", BackendMmap, true},
		{"auto", "", false},
		{"zero-copy", "", false},
	} {
		got, err := ParseBackend(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParseBackend(%q) = %q, %v", tc.in, got, err)
		}
	}
	if Backend("").String() != "mmap" {
		t.Error("empty backend does not stringify as mmap")
	}
}

// TestBackingReadAtContract pins the io.ReaderAt contract both backings must
// share: reads at exact end-of-data return (0, io.EOF), partial tail reads
// return (n, io.EOF), and full reads return nil.
func TestBackingReadAtContract(t *testing.T) {
	const size = PageSize + 100
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}

	osPath := filepath.Join(t.TempDir(), "ra.bin")
	if err := os.WriteFile(osPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	osFile, err := os.Open(osPath)
	if err != nil {
		t.Fatal(err)
	}
	defer osFile.Close()

	mem := &memBacking{}
	if _, err := mem.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	for name, r := range map[string]io.ReaderAt{"os.File": osFile, "memBacking": mem} {
		// Exact end of data: (0, io.EOF).
		buf := make([]byte, 10)
		if n, err := r.ReadAt(buf, size); n != 0 || err != io.EOF {
			t.Errorf("%s: ReadAt at end = (%d, %v), want (0, io.EOF)", name, n, err)
		}
		// Past the end: (0, io.EOF) too.
		if n, err := r.ReadAt(buf, size+50); n != 0 || err != io.EOF {
			t.Errorf("%s: ReadAt past end = (%d, %v), want (0, io.EOF)", name, n, err)
		}
		// Partial tail: (n < len(p), io.EOF) with the right bytes.
		if n, err := r.ReadAt(buf, size-4); n != 4 || err != io.EOF || !bytes.Equal(buf[:4], data[size-4:]) {
			t.Errorf("%s: tail ReadAt = (%d, %v)", name, n, err)
		}
		// Full interior read: (len(p), nil).
		if n, err := r.ReadAt(buf, 100); n != len(buf) || err != nil || !bytes.Equal(buf, data[100:110]) {
			t.Errorf("%s: interior ReadAt = (%d, %v)", name, n, err)
		}
	}

	if _, err := mem.ReadAt(make([]byte, 1), -1); err == nil {
		t.Error("memBacking accepted a negative offset")
	}
}

// TestViewConcurrent hammers every backend with 8 goroutines of mixed
// view/release traffic; under -race this is the data-race check for the
// View contract.
func TestViewConcurrent(t *testing.T) {
	const (
		pages      = 12
		goroutines = 8
		iters      = 400
	)
	for _, backend := range []Backend{BackendPool, BackendMmap} {
		t.Run(string(backend), func(t *testing.T) {
			pf, want := sourceFixture(t, pages)
			src, err := NewSource(pf, backend, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						id := PageID(1 + (g*13+i*7)%pages)
						page, release, err := src.View(id)
						if err != nil {
							errs <- err
							return
						}
						if !bytes.Equal(page, want[id-1]) {
							release()
							errs <- fmt.Errorf("goroutine %d: page %d content differs", g, id)
							return
						}
						release()
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if p, ok := src.(*Pool); ok && p.PinnedCount() != 0 {
				t.Fatalf("%d frames still pinned", p.PinnedCount())
			}
		})
	}
}
