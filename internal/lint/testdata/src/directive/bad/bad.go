// Package bad must trigger the directive check: a lint:ignore without a
// reason is not an audited exception (and therefore suppresses nothing).
package bad

import "fmt"

// Wrap flattens err, with a reasonless ignore.
func Wrap(err error) error {
	//lint:ignore errwrap
	return fmt.Errorf("bad: %v", err)
}

// Step carries a misspelt marker kind, which no check reads, so it pins
// nothing.
//
//twlint:steady-sate
func Step(x int) int { return x + 1 }
