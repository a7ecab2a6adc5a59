package core

// findings is what a search's filter pass found, for the verification pass
// that follows it: starts to verify, each with the furthest end it stands
// for, and on an exact index answers, each with its end and exact
// distance. Entries are appended in discovery order and keyed by their
// global element offset (the sequence's offset plus the start), so sorted
// hands them over in (sequence, start) order and, at one start, in
// discovery order: a start offered twice is two neighbouring entries, which
// the pass merges into one keeping the furthest end, and an exact start's
// answers keep the rising ends the traversal finds them in, one qualifying
// depth after another on its way down. No start is both: stored suffixes
// are run heads, shifted starts are not. The slices keep their capacity
// across the queries of the pooled searcher, so a query costs O(entries),
// never O(database).
type findings struct {
	// keys[i] holds entry i's offset in its high half and i in its low
	// half; spare is sorted's second buffer, swapped with keys.
	keys, spare []uint64
	entries     []finding
}

// finding is one entry: the end of a start to verify (dist toVerify) or of
// an answer at exact distance dist.
type finding struct {
	end  int32
	dist float64
}

// toVerify is the dist of a finding that is a start to verify; no distance
// is negative.
const toVerify = -1

// reset forgets the last query's entries.
func (f *findings) reset() { f.keys, f.entries = f.keys[:0], f.entries[:0] }

// add appends an entry at offset off.
//
//twlint:steady-state
func (f *findings) add(off, end int, dist float64) {
	//lint:ignore steadystate amortized: keys doubles toward the high-water mark of entries per query, then reset reslices to 0 and reuses the array
	f.keys = append(f.keys, uint64(off)<<32|uint64(len(f.entries)))
	//lint:ignore steadystate amortized: as keys
	f.entries = append(f.entries, finding{end: int32(end), dist: dist})
}

// sorted returns the keys in ascending offset order, entries at one offset
// in the order they were added, in O(entries) without a comparison. The
// slice aliases the list's storage and is invalidated by the next reset.
//
//twlint:steady-state
func (f *findings) sorted() []uint64 {
	if cap(f.spare) < len(f.keys) {
		//lint:ignore steadystate amortized: the second buffer follows keys' capacity, which doubles toward the high-water mark of entries and is then reused
		f.spare = make([]uint64, cap(f.keys))
	}
	f.keys, f.spare = radixSort(f.keys, f.spare[:len(f.keys)])
	return f.keys
}

// at returns the offset and the entry of a key sorted returned.
//
//twlint:steady-state
func (f *findings) at(key uint64) (off int, e finding) {
	return int(key >> 32), f.entries[uint32(key)]
}

// radixSort orders a by the high halves of its keys, stably, by
// least-significant-digit radix passes over those four bytes between a and
// the equally long b, and returns the buffer that holds the result and the
// other one. One pass counts all four digits; a digit on which every key
// agrees — the high bytes of offsets into a small database — moves nothing
// and is skipped. The low halves are never passed over: keys that tie keep
// the order they came in.
//
//twlint:steady-state
func radixSort(a, b []uint64) (sorted, other []uint64) {
	if len(a) < 2 {
		return a, b
	}
	var counts [4][256]int32
	for _, k := range a {
		counts[0][k>>32&0xff]++
		counts[1][k>>40&0xff]++
		counts[2][k>>48&0xff]++
		counts[3][k>>56]++
	}
	for d := 0; d < 4; d++ {
		shift := uint(32 + 8*d)
		c := &counts[d]
		if int(c[a[0]>>shift&0xff]) == len(a) {
			continue
		}
		var sum int32
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, k := range a {
			i := k >> shift & 0xff
			b[c[i]] = k
			c[i]++
		}
		a, b = b, a
	}
	return a, b
}
