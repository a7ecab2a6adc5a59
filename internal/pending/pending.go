// Package pending tracks the candidate subsequence end positions a filter
// pass produces, for the post-processing step that verifies them.
//
// The set is keyed by a global element offset (sequence offset + start
// position) and stores, per offset, the maximum candidate end seen. A dense
// per-query array over every element of the database would make each search
// O(total elements); instead the array is allocated once per query context
// and reused across queries via epoch stamping — a slot belongs to the
// current query only if its stamp equals the current epoch — plus a list of
// touched offsets so iteration visits only this query's candidates. That
// makes per-query cost O(candidates) while keeping O(1) insert and the
// "keep the max end per start" semantics of the paper's post-processing
// step.
package pending

// Set is an epoch-stamped sparse map from int32 offsets to the maximum
// int32 end recorded for them. The zero value is unusable; call Reset with
// the database's total element count first. A Set is not safe for
// concurrent use; each pooled query context owns one.
type Set struct {
	stamp   []uint32 // per-offset epoch of last write
	maxEnd  []int32  // valid only where stamp[i] == epoch
	touched []int32  // offsets written this epoch, insertion order
	scratch []int32  // Sorted's second buffer, swapped with touched
	epoch   uint32
}

// Reset prepares the set for a new query over a database of n elements,
// forgetting all entries in O(touched) — or O(n) on first use, growth, or
// epoch wraparound.
//
//twlint:steady-state
func (s *Set) Reset(n int) {
	if len(s.stamp) != n {
		//lint:ignore steadystate warmup only: the arrays are sized to the database once per pooled searcher and reused until the dataset changes
		s.stamp = make([]uint32, n)
		//lint:ignore steadystate warmup only: sized with stamp above, reused across every query on this searcher
		s.maxEnd = make([]int32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wraparound: stale stamps could collide, clear them
		clear(s.stamp)
		s.epoch = 1
	}
	s.touched = s.touched[:0]
}

// Add records a candidate [offset, end]; if the offset already holds a
// candidate this query, the larger end wins.
//
//twlint:steady-state
func (s *Set) Add(offset, end int32) {
	if s.stamp[offset] == s.epoch {
		if end > s.maxEnd[offset] {
			s.maxEnd[offset] = end
		}
		return
	}
	s.stamp[offset] = s.epoch
	s.maxEnd[offset] = end
	//lint:ignore steadystate amortized: touched doubles toward the candidate high-water mark, then Reset reslices to 0 and reuses the array
	s.touched = append(s.touched, offset)
}

// Len returns the number of distinct offsets recorded this query.
func (s *Set) Len() int { return len(s.touched) }

// Sorted returns this query's offsets in ascending order, in O(touched)
// without a comparison. The slice aliases the set's storage and is
// invalidated by the next Reset.
//
//twlint:steady-state
func (s *Set) Sorted() []int32 {
	if cap(s.scratch) < len(s.touched) {
		//lint:ignore steadystate amortized: the second buffer follows touched's capacity, which doubles toward the candidate high-water mark and is then reused
		s.scratch = make([]int32, cap(s.touched))
	}
	s.touched, s.scratch = radixSort(s.touched, s.scratch[:len(s.touched)])
	return s.touched
}

// radixSort orders a ascending by least-significant-digit radix passes over
// its four bytes between a and the equally long b, and returns the buffer
// that holds the result and the other one. One pass counts all four digits;
// a digit on which every key agrees — the high bytes of offsets into a small
// database — moves nothing and is skipped. The top byte is biased so
// negative keys sort first.
//
//twlint:steady-state
func radixSort(a, b []int32) (sorted, other []int32) {
	if len(a) < 2 {
		return a, b
	}
	var counts [4][256]int32
	for _, v := range a {
		u := uint32(v) ^ 1<<31
		counts[0][u&0xff]++
		counts[1][u>>8&0xff]++
		counts[2][u>>16&0xff]++
		counts[3][u>>24]++
	}
	first := uint32(a[0]) ^ 1<<31
	for d := 0; d < 4; d++ {
		shift := uint(8 * d)
		c := &counts[d]
		if int(c[first>>shift&0xff]) == len(a) {
			continue
		}
		var sum int32
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, v := range a {
			i := (uint32(v) ^ 1<<31) >> shift & 0xff
			b[c[i]] = v
			c[i]++
		}
		a, b = b, a
	}
	return a, b
}

// MaxEnd returns the largest end recorded for an offset this query. It must
// only be called with offsets returned by Sorted (or previously Added).
//
//twlint:steady-state
func (s *Set) MaxEnd(offset int32) int32 { return s.maxEnd[offset] }
