// Package ignored must pass boundscontract only because the deliberate
// off-by-one prune on an interface-born bound carries an audited directive.
package ignored

// Kernel is a row kernel: the traversal sees only this interface.
type Kernel interface {
	// AddRow returns the row's last column and its minimum, both lower
	// bounds of the exact distance.
	//
	//twlint:bound-source results=0,1
	AddRow(sym int) (dist, minDist float64)
}

// PruneStrict deliberately dismisses the eps boundary; audited below.
func PruneStrict(k Kernel, sym int, eps float64) bool {
	_, minDist := k.AddRow(sym)
	//lint:ignore boundscontract fixture: experiment quantifying the dismissal rate of a >= prune
	return minDist >= eps
}
