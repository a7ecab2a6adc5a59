// Package good must pass boundscontract: bounds born behind a marked
// interface method prune strictly and reach a Match only under an exact
// guard, and an unmarked interface method's result is no bound at all.
package good

type match struct {
	Start, End int
	Distance   float64
}

// Kernel is a row kernel: the traversal sees only this interface.
type Kernel interface {
	// AddRow returns the row's last column and its minimum, both lower
	// bounds of the exact distance.
	//
	//twlint:bound-source results=0,1
	AddRow(sym int) (dist, minDist float64)
	// PostReset returns the base distance between the query's first
	// element and the start's: a lower bound of every exact distance at
	// that start.
	//
	//twlint:bound-source results=0
	PostReset(seq, start int) float64
	// Exact returns the verified distance of the rows so far.
	Exact() float64
}

// Prune keeps the boundary candidate.
func Prune(k Kernel, sym int, eps float64) bool {
	_, minDist := k.AddRow(sym)
	return minDist > eps
}

// SkipStart drops a start only when its first element alone is beyond eps.
func SkipStart(k Kernel, seq, start int, eps float64) bool {
	return k.PostReset(seq, start) > eps
}

// Publish lets the filter distance through only when it is exact.
func Publish(k Kernel, sym int, exact bool) match {
	dist, _ := k.AddRow(sym)
	if exact {
		return match{Distance: dist}
	}
	return match{Distance: k.Exact()}
}

// Within tests an exact distance; any comparison is legal on it.
func Within(k Kernel, eps float64) bool {
	return k.Exact() >= eps
}
