// Package ignored must pass ctxflow only because its re-root beneath a
// context parameter is audited with a directive.
package ignored

import "context"

// Detach returns the root of work that must outlive the caller's request.
func Detach(ctx context.Context) context.Context {
	//lint:ignore ctxflow fixture: the returned context roots work that outlives the request, so the request's cancellation must not reach it
	return context.Background()
}
