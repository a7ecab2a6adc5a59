package dtw

// Sakoe–Chiba query envelopes and the Keogh/Lemire lower-bound kernels built
// on them — the O(1)-per-row prefilter tier that runs before any cumulative
// table row. For a query Q and band half-width w, the envelope at candidate
// position x is the hull of every query element a row at depth x may be
// matched to:
//
//	L[x] = min Q[max(0,x-w) .. min(n-1,x+w)]
//	U[x] = max Q[max(0,x-w) .. min(n-1,x+w)]
//
// Any warping path covers every candidate row exactly once, and a row at
// depth x can only align with query columns inside the band, so each row
// contributes at least its gap to the envelope: summing gaps lower-bounds
// D_tw (LB_Keogh). Without a window the envelope degenerates to the query's
// global [min, max] hull, which is also what makes the bound safe for the
// sparse tree's shifted suffixes (a constant envelope reads the same at
// every depth, so shifting rows never changes a gap).
//
// An Envelope is bound once per query and reused across the whole traversal;
// Bind reuses all storage, so a pooled query context pays zero steady-state
// allocations for it.

// Envelope is the per-position value hull of a query under a Sakoe–Chiba
// band (constant without one). It is not safe for concurrent use; parallel
// search workers bind one each.
type Envelope struct {
	// lo/hi are the envelope per candidate position. With a window they
	// have length len(q)+window (positions beyond are unreachable under the
	// band); without one they are the single global hull entry. Readers
	// clamp their index — see At.
	lo, hi []float64

	deq []int32 // sliding-window deque scratch, reused across Bind calls
}

// NewEnvelope returns an envelope of q under band half-width w (< 0 means
// unconstrained). It panics on an empty query, matching the table kernels.
func NewEnvelope(q []float64, w int) *Envelope {
	e := &Envelope{}
	e.Bind(q, w)
	return e
}

// Bind re-targets the envelope at a new query and window, reusing all
// storage. Pooled query contexts call it once per search.
func (e *Envelope) Bind(q []float64, w int) {
	if len(q) == 0 {
		//lint:ignore panicpath precondition assertion: search entry points reject empty queries before any envelope exists
		panic("dtw: empty query")
	}
	n := len(q)
	if w < 0 {
		// Unconstrained: one global hull entry serves every position.
		minQ, maxQ := q[0], q[0]
		for _, v := range q[1:] {
			if v < minQ {
				minQ = v
			}
			if v > maxQ {
				maxQ = v
			}
		}
		e.lo = append(e.lo[:0], minQ)
		e.hi = append(e.hi[:0], maxQ)
		return
	}
	m := n + w // positions 0 .. n-1+w are reachable under the band
	e.lo = grow(e.lo, m)
	e.hi = grow(e.hi, m)
	e.slide(q, w, e.lo, true)
	e.slide(q, w, e.hi, false)
}

// slide fills out[x] with the min (or max) of q over the band around x using
// a monotonic index deque — O(n+w) total for all positions.
func (e *Envelope) slide(q []float64, w int, out []float64, wantMin bool) {
	n := len(q)
	e.deq = e.deq[:0]
	front := 0
	next := 0
	for x := range out {
		hiIdx := x + w
		if hiIdx > n-1 {
			hiIdx = n - 1
		}
		for ; next <= hiIdx; next++ {
			v := q[next]
			for len(e.deq) > front {
				b := q[e.deq[len(e.deq)-1]]
				if wantMin && b < v || !wantMin && b > v {
					break
				}
				e.deq = e.deq[:len(e.deq)-1]
			}
			e.deq = append(e.deq, int32(next))
		}
		loIdx := x - w
		for int(e.deq[front]) < loIdx {
			front++
		}
		out[x] = q[e.deq[front]]
	}
}

// grow returns s resized to n entries, reusing capacity.
func grow(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// At returns the envelope interval at candidate position x, clamping x past
// the last reachable position (rows out there are unreachable under the
// band, so any interval is a sound stand-in). The slices returned by Bounds
// are the unclamped storage for hot loops that do the clamp themselves.
func (e *Envelope) At(x int) (lo, hi float64) {
	if m := len(e.lo) - 1; x > m {
		x = m
	}
	return e.lo[x], e.hi[x]
}

// Bounds returns the per-position envelope slices (length 1 when the
// envelope is constant). The slices alias the envelope's storage and are
// invalidated by the next Bind.
func (e *Envelope) Bounds() (lo, hi []float64) { return e.lo, e.hi }

// GapInterval returns the smallest possible city-block distance between any
// value in [aLo, aHi] and any value in [bLo, bHi] — zero when the intervals
// overlap. With a for a candidate symbol's value interval and b for an
// envelope interval, it lower-bounds every base distance a table row over
// that symbol could produce, which is what lets the cascade prune without
// computing the row.
func GapInterval(aLo, aHi, bLo, bHi float64) float64 {
	g := bLo - aHi
	if d := aLo - bHi; d > g {
		g = d
	}
	if g < 0 {
		return 0
	}
	return g
}

// LBKeogh returns the Keogh envelope lower bound of D_tw(c, Q) for the
// query the envelope was bound to: the sum over candidate positions of the
// gap between c[x] and the envelope at x. The loop is branch-light — one
// clamped index and two max folds per element, no per-element allocation or
// call. LB_Keogh(c, Env(Q,w)) <= DistanceWindow(c, Q, w) for every c (and
// <= Distance(c, Q) when unconstrained), so pruning via "> eps" keeps the
// no-false-dismissal contract.
func LBKeogh(c []float64, e *Envelope) float64 {
	if len(c) == 0 {
		//lint:ignore panicpath precondition assertion: the engine validates candidates before the kernel; a silent zero bound would be claimed sound when it is vacuous
		panic("dtw: LBKeogh of empty sequence")
	}
	lo, hi := e.lo, e.hi
	m := len(lo) - 1
	var sum float64
	for x, v := range c {
		if x > m {
			x = m
		}
		below := lo[x] - v
		above := v - hi[x]
		g := 0.0
		if below > g {
			g = below
		}
		if above > g {
			g = above
		}
		sum += g
	}
	return sum
}
