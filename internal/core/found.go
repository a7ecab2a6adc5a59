package core

// findings is what a search's filter pass found, for the verification pass
// that follows it: the starts to verify, each with the furthest end it
// stands for. Entries are appended in discovery order and keyed by their
// global element offset (the sequence's offset plus the start), so sorted
// hands them over in (sequence, start) order. No start is offered twice: a
// reached leaf hands over the starts of its own run, and a collected
// subtree those of each of its leaves once. The slices keep their capacity
// across the queries of the pooled searcher, so a query costs O(entries),
// never O(database).
type findings struct {
	// keys[i] holds entry i's offset in its high half and i in its low
	// half; spare is sorted's second buffer, swapped with keys. ends[i] is
	// entry i's end.
	keys, spare []uint64
	ends        []int32
}

// reset forgets the last query's entries.
func (f *findings) reset() { f.keys, f.ends = f.keys[:0], f.ends[:0] }

// add appends the start at offset off, to be verified up to end.
//
//twlint:steady-state
func (f *findings) add(off, end int) {
	//lint:ignore steadystate amortized: keys doubles toward the high-water mark of entries per query, then reset reslices to 0 and reuses the array
	f.keys = append(f.keys, uint64(off)<<32|uint64(len(f.ends)))
	//lint:ignore steadystate amortized: as keys
	f.ends = append(f.ends, int32(end))
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

// at returns the offset and the end of a key sorted returned.
//
//twlint:steady-state
func (f *findings) at(key uint64) (off int, end int32) {
	return int(key >> 32), f.ends[uint32(key)]
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
