package dtw

// Pair records that element a[X] was matched to element b[Y] by the optimal
// warping path.
type Pair struct {
	X, Y int
}

// Align computes the time warping distance between a and b together with the
// optimal warping path, traced backward through the full cumulative table by
// always stepping to the predecessor with the lowest cumulative distance
// (Figure 1(b) of the paper). The path is returned in forward order, starts
// at (0,0), ends at (len(a)-1, len(b)-1), and each step advances X, Y, or
// both by one.
func Align(a, b []float64) (float64, []Pair) {
	if len(a) == 0 || len(b) == 0 {
		//lint:ignore panicpath precondition assertion: the engine validates queries before the kernel; a silent zero-distance path would break exactness
		panic("dtw: align of empty sequence")
	}
	na, nb := len(a), len(b)
	cum := make([]float64, na*nb)
	at := func(x, y int) float64 { return cum[x*nb+y] }
	for x := 0; x < na; x++ {
		for y := 0; y < nb; y++ {
			base := Base(a[x], b[y])
			switch {
			case x == 0 && y == 0:
				cum[x*nb+y] = base
			case x == 0:
				cum[x*nb+y] = base + at(x, y-1)
			case y == 0:
				cum[x*nb+y] = base + at(x-1, y)
			default:
				cum[x*nb+y] = base + Min3(at(x, y-1), at(x-1, y), at(x-1, y-1))
			}
		}
	}

	// Backtrace.
	path := make([]Pair, 0, na+nb)
	x, y := na-1, nb-1
	for {
		path = append(path, Pair{X: x, Y: y})
		if x == 0 && y == 0 {
			break
		}
		switch {
		case x == 0:
			y--
		case y == 0:
			x--
		default:
			diag, up, left := at(x-1, y-1), at(x-1, y), at(x, y-1)
			// Prefer the diagonal on ties: it yields the shortest path.
			if diag <= up && diag <= left {
				x, y = x-1, y-1
			} else if up <= left {
				x--
			} else {
				y--
			}
		}
	}
	// Reverse into forward order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return at(na-1, nb-1), path
}
