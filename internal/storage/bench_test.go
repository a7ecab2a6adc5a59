package storage

import (
	"path/filepath"
	"testing"
)

func benchPool(b *testing.B, capacity, nPages int) (*Pool, []PageID) {
	b.Helper()
	pf, err := CreateFile(filepath.Join(b.TempDir(), "bench.bin"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pf.Close() })
	ids := fillPages(b, pf, nPages)
	pool, err := NewPool(pf, capacity)
	if err != nil {
		b.Fatal(err)
	}
	return pool, ids
}

func BenchmarkPoolGetHit(b *testing.B) {
	pool, ids := benchPool(b, 64, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fr, err := pool.get(ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		fr.release()
	}
}

func BenchmarkPoolGetMiss(b *testing.B) {
	pool, ids := benchPool(b, 2, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fr, err := pool.get(ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		fr.release()
	}
}
