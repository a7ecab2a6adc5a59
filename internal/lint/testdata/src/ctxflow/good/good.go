// Package good threads contexts correctly: a function that receives a
// context derives from it, and the only fresh root is an audited wrapper.
package good

import (
	"context"
	"time"
)

// Run bounds its work by a deadline derived from the caller's context and
// polls it every turn.
func Run(ctx context.Context, n int) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	total := 0
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		total += i
	}
	return total, nil
}

// RunCompat is a public wrapper for callers with no context.
//
//twlint:ctx-root fixture: public compatibility wrapper for context-free callers
func RunCompat(n int) (int, error) {
	return Run(context.Background(), n)
}
