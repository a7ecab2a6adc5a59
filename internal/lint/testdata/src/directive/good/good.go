// Package good must pass the directive check: well-formed directives only.
package good

import "fmt"

// Wrap flattens err under a fully documented exception.
func Wrap(err error) error {
	//lint:ignore errwrap fixture: the cause is flattened on purpose, with a written reason
	return fmt.Errorf("good: %v", err)
}

// Step carries a marker of a kind a check reads.
//
//twlint:steady-state
func Step(x int) int { return x + 1 }
