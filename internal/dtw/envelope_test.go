package dtw

import (
	"math/rand"
	"testing"
)

// naiveEnvelope computes L/U at position x by direct scan — the executable
// spec the deque-based slide is checked against.
func naiveEnvelope(q []float64, w, x int) (lo, hi float64) {
	a := x - w
	if a < 0 {
		a = 0
	}
	b := x + w
	if b > len(q)-1 {
		b = len(q) - 1
	}
	lo, hi = q[a], q[a]
	for _, v := range q[a+1 : b+1] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func randSeries(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	v := float64(rng.Intn(20))
	for i := range s {
		v += float64(rng.Intn(7) - 3)
		s[i] = v
	}
	return s
}

func TestEnvelopeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 200; trial++ {
		q := randSeries(rng, 1+rng.Intn(30))
		w := rng.Intn(12)
		e := NewEnvelope(q, w)
		lo, hi := e.Bounds()
		if len(lo) != len(q)+w || len(hi) != len(q)+w {
			t.Fatalf("envelope length %d, want %d", len(lo), len(q)+w)
		}
		for x := 0; x < len(q)+w; x++ {
			wlo, whi := naiveEnvelope(q, w, x)
			if lo[x] != wlo || hi[x] != whi {
				t.Fatalf("|q|=%d w=%d x=%d: envelope [%v,%v], naive [%v,%v]",
					len(q), w, x, lo[x], hi[x], wlo, whi)
			}
			// At clamps past the last reachable position.
			alo, ahi := e.At(x + len(q) + w)
			if alo != lo[len(lo)-1] || ahi != hi[len(hi)-1] {
				t.Fatal("At did not clamp")
			}
		}
	}
}

func TestEnvelopeUnconstrained(t *testing.T) {
	e := NewEnvelope([]float64{3, 1, 4, 1, 5}, -1)
	lo, hi := e.Bounds()
	if len(lo) != 1 || len(hi) != 1 || lo[0] != 1 || hi[0] != 5 {
		t.Fatalf("unconstrained envelope = [%v,%v] (len %d)", lo, hi, len(lo))
	}
	if l, h := e.At(100); l != 1 || h != 5 {
		t.Fatal("constant envelope At wrong")
	}
}

func TestGapInterval(t *testing.T) {
	cases := []struct {
		aLo, aHi, bLo, bHi, want float64
	}{
		{0, 1, 2, 3, 1}, // a below b
		{2, 3, 0, 1, 1}, // a above b
		{0, 2, 1, 3, 0}, // overlap
		{1, 1, 1, 1, 0}, // identical points
		{0, 5, 2, 3, 0}, // containment
		{-3, -1, 1, 2, 2},
	}
	for _, c := range cases {
		if got := GapInterval(c.aLo, c.aHi, c.bLo, c.bHi); got != c.want {
			t.Errorf("GapInterval(%v,%v,%v,%v) = %v, want %v", c.aLo, c.aHi, c.bLo, c.bHi, got, c.want)
		}
	}
}

// TestQuickLowerBoundChain pins the row gate's ordering property on equal
// lengths: LB_Keogh <= D_tw under the window the envelope was bound with,
// for both banded and unconstrained envelopes.
func TestQuickLowerBoundChain(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(24)
		q := randSeries(rng, n)
		c := randSeries(rng, n)
		w := -1
		if rng.Intn(2) == 0 {
			w = rng.Intn(n + 2)
		}
		e := NewEnvelope(q, w)
		lbk := LBKeogh(c, e)
		var d float64
		if w < 0 {
			d = Distance(c, q)
		} else {
			d = DistanceWindow(c, q, w)
		}
		const slack = 1e-9 // float sums associate differently across kernels
		if lbk > d+slack {
			t.Fatalf("|q|=%d w=%d: LB_Keogh %v > D_tw %v", n, w, lbk, d)
		}
	}
}

// TestQuickLBKeoghUnequalLengths: LB_Keogh is still a lower bound when the
// candidate's length differs from the query's — the shape the engine's
// progressive traversal relies on (it sums gaps row by row).
func TestQuickLBKeoghUnequalLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	for trial := 0; trial < 400; trial++ {
		q := randSeries(rng, 1+rng.Intn(20))
		c := randSeries(rng, 1+rng.Intn(28))
		w := -1
		if rng.Intn(2) == 0 {
			w = rng.Intn(len(q) + len(c))
		}
		e := NewEnvelope(q, w)
		lbk := LBKeogh(c, e)
		var d float64
		if w < 0 {
			d = Distance(c, q)
		} else {
			d = DistanceWindow(c, q, w)
		}
		if lbk > d+1e-9 {
			t.Fatalf("|q|=%d |c|=%d w=%d: LB_Keogh %v > D_tw %v", len(q), len(c), w, lbk, d)
		}
	}
}

func TestEnvelopePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewEnvelope(nil, 3)
}

// TestEnvelopeBindNoAllocs: rebinding a pooled envelope and running the
// kernel is allocation-free after warmup — the steady-state contract the
// per-query context relies on.
func TestEnvelopeBindNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	q := randSeries(rng, 64)
	c := randSeries(rng, 64)
	e := NewEnvelope(q, 8)
	// Warm up every growth path.
	e.Bind(q, 8)
	LBKeogh(c, e)
	allocs := testing.AllocsPerRun(100, func() {
		e.Bind(q, 8)
		LBKeogh(c, e)
		e.Bind(q, -1)
		LBKeogh(c, e)
	})
	if allocs != 0 {
		t.Fatalf("steady-state envelope allocations: %v per run", allocs)
	}
}
