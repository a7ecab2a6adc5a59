// Package bad must trigger the directive check: a lint:ignore without a
// reason is not an audited exception (and therefore suppresses nothing).
package bad

// SameDistance compares exactly, with a reasonless ignore.
func SameDistance(a, b float64) bool {
	//lint:ignore floateq
	return a == b
}

// Step carries a misspelt marker kind, which no check reads, so it pins
// nothing.
//
//twlint:steady-sate
func Step(x int) int { return x + 1 }
