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
	// The cumulative table: a row per element of a, a column per element
	// of b.
	t := NewTable(b)
	dist := 0.0
	for _, v := range a {
		dist, _ = t.AddRowValue(v)
	}
	at := func(x, y int) float64 { return t.Row(x)[y] }

	// Backtrace.
	path := make([]Pair, 0, len(a)+len(b))
	x, y := len(a)-1, len(b)-1
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
	return dist, path
}
