// Package bad exercises ctxflow's rule: an unmarked re-root and a re-root
// beneath a context parameter. The audited wrapper and its caller are no
// findings: ctxflow reads one function body at a time, and a caller that
// drops its context through a wrapper is the tests' to catch.
package bad

import "context"

// Scan is an audited compatibility wrapper; the marker covers its root for
// context-free callers.
//
//twlint:ctx-root fixture: compat wrapper for context-free callers
func Scan() int {
	_ = context.Background()
	return 1
}

// Fresh roots a context with no audit trail.
func Fresh() context.Context {
	return context.Background()
}

// Query receives a context and calls the audited wrapper, whose root is
// in the wrapper's own body: no finding here.
func Query(ctx context.Context, q int) int {
	return q + Scan()
}

// serveBatch re-roots despite receiving ctx.
func serveBatch(ctx context.Context, jobs []int) int {
	c := context.TODO()
	_ = c
	n := 0
	for _, j := range jobs {
		n += j
	}
	return n
}
