// Package good must pass the directive check: well-formed directives only.
package good

// SameDistance compares exactly under a fully documented exception.
func SameDistance(a, b float64) bool {
	//lint:ignore floateq fixture: exact comparison audited with a written reason
	return a == b
}

// Step carries a marker of a kind a check reads.
//
//twlint:steady-state
func Step(x int) int { return x + 1 }
