// Package bad must trigger boundscontract four times through markers on
// interface methods: a >= prune, a >= skip of a verification start on its
// first-element bound and an unguarded Match distance on bounds born behind
// an interface call — the engine/kernel shape, where no concrete producer
// is visible at the call site — and a marker naming a result the method
// does not have.
package bad

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
	// element and the start's, which every warping path from there pays: a
	// lower bound of every exact distance at that start.
	//
	//twlint:bound-source results=0
	PostReset(seq, start int) float64
	// Depth has one result; the marker below names a second.
	//
	//twlint:bound-source results=1
	Depth() int
}

// Prune discards the boundary candidate: the bound came through the
// interface, and >= is still a false dismissal.
func Prune(k Kernel, sym int, eps float64) bool {
	_, minDist := k.AddRow(sym)
	return minDist >= eps
}

// SkipStart drops a start whose first element is exactly eps away, where a
// one-element answer at distance eps may sit.
func SkipStart(k Kernel, seq, start int, eps float64) bool {
	return k.PostReset(seq, start) >= eps
}

// Publish reports the filter distance as exact with no exactness guard.
func Publish(k Kernel, sym int) match {
	dist, _ := k.AddRow(sym)
	return match{Start: 0, End: k.Depth(), Distance: dist}
}
