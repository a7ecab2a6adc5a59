package storage

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// parkedIn waits until some goroutine is asleep on a lock inside the
// function fn (a stack frame name such as "storage.(*Pool).Stats"), and
// fails the test if none is within ten seconds.
func parkedIn(t *testing.T, fn string) {
	t.Helper()
	frame := fn + "("
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, frame) && strings.Contains(g, "sync.runtime_Semacquire") {
				return
			}
		}
	}
	t.Fatalf("no goroutine asleep on a lock in %s", fn)
}

// TestPoolCountersReleaseEachStripe: the pool's counter reads take one
// stripe at a time. While the last stripe is held, each read waits on it
// with every other stripe free, so a page read elsewhere in the pool is
// never stalled behind a counter read.
func TestPoolCountersReleaseEachStripe(t *testing.T) {
	pf := tempFile(t)
	fillPages(t, pf, maxPoolShards)
	pool, err := NewPool(pf, maxPoolShards)
	if err != nil {
		t.Fatal(err)
	}
	last := len(pool.shards) - 1
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Stats", func() { pool.Stats() }},
		{"ShardStats", func() { pool.ShardStats() }},
		{"PinnedCount", func() { pool.PinnedCount() }},
	} {
		pool.shards[last].mu.Lock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			tc.call()
		}()
		parkedIn(t, "storage.(*Pool)."+tc.name)
		for i := range pool.shards[:last] {
			if !pool.shards[i].mu.TryLock() {
				t.Errorf("%s holds stripe %d while it waits on stripe %d", tc.name, i, last)
				continue
			}
			pool.shards[i].mu.Unlock()
		}
		pool.shards[last].mu.Unlock()
		<-done
	}
}
