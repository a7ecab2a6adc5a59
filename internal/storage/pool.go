package storage

import (
	"errors"
	"sync"
)

// Frame is a pinned page in the buffer pool. Every frame get returns must be
// released; a pinned frame is never evicted. The frame's fields are
// guarded by its shard's mutex; the page bytes themselves are read-only and
// may be read by any number of goroutines while the frame is pinned.
type Frame struct {
	id    PageID
	data  []byte
	pins  int
	shard *poolShard
	// prev and next link the frame into its shard's LRU ring while it holds
	// a page.
	prev, next *Frame
	// releaseFn is the frame's unpin closure, built once at frame creation
	// so the pool's View hands it out without allocating per call.
	releaseFn func()
}

// ID returns the page id this frame holds.
func (fr *Frame) ID() PageID { return fr.id }

// Data returns the frame's page bytes. The slice remains valid until the
// frame is released and evicted; do not retain it past release.
func (fr *Frame) Data() []byte { return fr.data }

// PoolStats counts buffer pool activity since creation.
type PoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Overflows counts frames installed beyond a shard's capacity because
	// every frame it held was pinned — concurrent readers outnumbering a
	// small stripe. The shard shrinks back as they release.
	Overflows uint64
}

// Add accumulates other into s.
func (s *PoolStats) Add(other PoolStats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Overflows += other.Overflows
}

// maxPoolShards caps the lock striping of a Pool. Eight shards keep
// contention low on any core count we serve while leaving per-shard LRU
// lists large enough to stay useful caches.
const maxPoolShards = 8

// poolShard is one lock stripe of a Pool: an independent LRU cache over the
// pages whose id hashes to it.
type poolShard struct {
	mu       sync.Mutex
	file     *File
	capacity int
	frames   map[PageID]*Frame
	// lru is the sentinel of a ring holding every frame in frames:
	// lru.next is the most recently used, lru.prev the least; eviction
	// skips pinned frames.
	lru Frame
	// spare is the last frame dropped from the shard — buffer, Frame and
	// release closure — kept for the next miss, which in the steady state
	// is the very miss that evicted it.
	spare *Frame
	stats PoolStats
}

// Pool is a lock-striped LRU read cache over one page File, safe for any
// number of concurrent readers: pages are partitioned over shards by id, so
// goroutines contend only when they touch the same stripe, and a miss holds
// only its own shard's lock while the page is read from disk. The total
// capacity is split across the shards (each holding at least one frame);
// eviction is LRU per shard. Capacity bounds the unpinned frames a shard
// keeps, not the readers it serves: when every frame of a shard is pinned a
// miss installs one more (PoolStats.Overflows) instead of failing the read,
// and the shard evicts back down as the pins are released.
type Pool struct {
	file   *File
	shards []poolShard
}

// NewPool wraps file with a pool holding at most capacity pages
// (capacity >= 1) across min(capacity, 8) lock-striped shards.
func NewPool(file *File, capacity int) (*Pool, error) {
	if capacity < 1 {
		return nil, errors.New("storage: pool capacity must be >= 1")
	}
	n := maxPoolShards
	if capacity < n {
		n = capacity
	}
	p := &Pool{file: file, shards: make([]poolShard, n)}
	for i := range p.shards {
		sh := &p.shards[i]
		// Split the capacity as evenly as possible; early shards take the
		// remainder.
		sh.capacity = capacity / n
		if i < capacity%n {
			sh.capacity++
		}
		sh.file = file
		// A shard never holds more frames than the file has pages, and a
		// capacity read from an index record is only that record's word.
		sh.frames = make(map[PageID]*Frame, min(sh.capacity, int(file.NumPages())))
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
	}
	return p, nil
}

// File returns the underlying page file.
func (p *Pool) File() *File { return p.file }

// shard maps a page id to its lock stripe.
func (p *Pool) shard(id PageID) *poolShard {
	return &p.shards[int(id)%len(p.shards)]
}

// Stats returns the pool's counters summed over all shards.
func (p *Pool) Stats() PoolStats {
	var total PoolStats
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		total.Add(sh.stats)
		sh.mu.Unlock()
	}
	return total
}

// ShardStats returns a copy of each shard's counters, in shard order.
func (p *Pool) ShardStats() []PoolStats {
	out := make([]PoolStats, len(p.shards))
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		out[i] = sh.stats
		sh.mu.Unlock()
	}
	return out
}

// get pins the page and returns its frame, reading it from disk on a miss.
// Concurrent gets for pages in different shards proceed independently; a
// miss performs its disk read under the shard lock, so at most one reader
// per shard faults a page in at a time.
func (p *Pool) get(id PageID) (*Frame, error) {
	sh := p.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fr, ok := sh.frames[id]; ok {
		sh.stats.Hits++
		sh.pin(fr)
		return fr, nil
	}
	sh.stats.Misses++
	fr := sh.newFrame(id)
	if err := p.file.ReadPage(id, fr.data); err != nil {
		sh.drop(fr)
		return nil, err
	}
	return fr, nil
}

// newFrame installs a pinned frame for id, whose bytes the caller must
// fill, evicting down to make room; if every frame is pinned the shard runs
// over capacity until release trims it. The frame is the one the eviction
// just dropped whenever there was one, so a miss on a full shard allocates
// nothing. The caller holds sh.mu.
//
//twlint:steady-state
func (sh *poolShard) newFrame(id PageID) *Frame {
	sh.trim(sh.capacity - 1)
	if len(sh.frames) >= sh.capacity {
		sh.stats.Overflows++
	}
	fr := sh.spare
	if fr == nil {
		fr = sh.allocFrame()
	}
	sh.spare = nil
	fr.id, fr.pins = id, 1
	sh.pushFront(fr)
	sh.frames[id] = fr
	return fr
}

// allocFrame builds a frame for a shard still growing to its capacity (or
// past it, on overflow).
func (sh *poolShard) allocFrame() *Frame {
	fr := &Frame{data: make([]byte, PageSize), shard: sh}
	fr.releaseFn = fr.release
	return fr
}

// release unpins a frame obtained from get; View hands it to borrowers as
// the frame's cached closure.
func (fr *Frame) release() {
	sh := fr.shard
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fr.pins <= 0 {
		// A double release means some frame is mutable while another
		// reader holds it; continuing would corrupt pages silently.
		panic("storage: release of unpinned frame")
	}
	fr.pins--
	if fr.pins == 0 {
		sh.unlink(fr)
		sh.pushFront(fr)
		sh.trim(sh.capacity)
	}
}

// View implements PageSource over the pool: it pins the page's frame and
// returns the frame's bytes with the frame's cached unpin closure. On the
// hit path nothing allocates, and neither does a miss that recycles the
// frame it evicts.
func (p *Pool) View(id PageID) ([]byte, func(), error) {
	fr, err := p.get(id)
	if err != nil {
		return nil, nil, err
	}
	return fr.data, fr.releaseFn, nil
}

// Close closes the underlying page file.
func (p *Pool) Close() error { return p.file.Close() }

// pin marks a frame in use and refreshes its recency. The caller holds
// sh.mu.
func (sh *poolShard) pin(fr *Frame) {
	fr.pins++
	sh.unlink(fr)
	sh.pushFront(fr)
}

// pushFront links fr in as the most recently used frame.
func (sh *poolShard) pushFront(fr *Frame) {
	fr.prev, fr.next = &sh.lru, sh.lru.next
	fr.prev.next, fr.next.prev = fr, fr
}

// unlink takes fr out of the LRU ring.
func (sh *poolShard) unlink(fr *Frame) {
	fr.prev.next, fr.next.prev = fr.next, fr.prev
}

// trim evicts least recently used unpinned frames until the shard holds at
// most n; pinned frames are skipped in place, so a fully pinned shard stays
// as it is. The caller holds sh.mu.
func (sh *poolShard) trim(n int) {
	for fr := sh.lru.prev; fr != &sh.lru && len(sh.frames) > n; {
		prev := fr.prev
		if fr.pins == 0 {
			sh.drop(fr)
			sh.stats.Evictions++
		}
		fr = prev
	}
}

// drop removes a frame from the shard and keeps it as the spare: no reader
// holds it (it is unpinned, or its page read just failed under this lock),
// so its bytes are free to be overwritten. The caller holds sh.mu.
func (sh *poolShard) drop(fr *Frame) {
	sh.unlink(fr)
	delete(sh.frames, fr.id)
	sh.spare = fr
}

// PinnedCount returns the number of currently pinned frames; used by tests
// to verify that traversals release everything they touch.
func (p *Pool) PinnedCount() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, fr := range sh.frames {
			if fr.pins > 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}
