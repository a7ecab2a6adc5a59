package lint

import (
	"go/ast"
	"go/types"

	"twsearch/internal/lint/cfg"
)

// LockBalance verifies mutex discipline path-sensitively: every
// sync.Mutex/sync.RWMutex Lock (or RLock) acquired in a library function
// must be released on every path that reaches the function exit — either
// by a matching Unlock (RUnlock) on each branch or by a dominating defer.
// Paths that abort (panic, os.Exit) are not exits and are ignored, so the
// common `mu.Lock(); if bad { panic(...) }` shape is not a false positive.
//
// Matching is textual on the receiver expression (`db.mu.Lock` pairs with
// `db.mu.Unlock`), which is exact for the idiomatic case of locking a
// field of the method receiver. Methods named Lock/Unlock/RLock/RUnlock
// are exempt: they are wrappers whose imbalance is the point.
var LockBalance = &Analyzer{
	Name: "lockbalance",
	Doc: "a sync (R)Lock has an exit path with no matching (R)Unlock; " +
		"release on every path or defer the unlock right after acquiring",
	Run: runLockBalance,
}

// lockPairs maps an acquire method to its release method.
var lockPairs = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

func runLockBalance(pass *Pass) {
	if !pass.Library {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, wrapper := lockPairs[fd.Name.Name]; wrapper || lockPairs[unlockName(fd.Name.Name)] != "" {
				continue // Lock/Unlock wrapper methods are the discipline, not users of it
			}
			checkLockBalance(pass, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkLockBalance(pass, lit)
				}
				return true
			})
		}
	}
}

// unlockName reports the acquire name a release method pairs with, or "".
func unlockName(name string) string {
	for lock, unlock := range lockPairs {
		if name == unlock {
			return lock
		}
	}
	return ""
}

// checkLockBalance analyzes one function or function literal.
func checkLockBalance(pass *Pass, fn ast.Node) {
	// Cheap pre-scan: skip the CFG when the body acquires no sync lock.
	any := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && syncLockCall(pass.Info, call) != "" {
			any = true
		}
		return !any
	})
	if !any {
		return
	}

	g := cfg.Build(pass.Fset, fn)
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			root := n
			cfg.InspectNode(n, func(x ast.Node) bool {
				if _, ok := x.(*ast.FuncLit); ok && x != root {
					return false // literals are analyzed separately
				}
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				acquire := syncLockCall(pass.Info, call)
				if acquire == "" {
					return true
				}
				recv := lockRecvString(call)
				release := lockPairs[acquire]
				leaks := g.PathToExit(b, i, func(node ast.Node) bool {
					return nodeReleases(pass.Info, node, release, recv)
				})
				if leaks {
					pass.Report(call, "%s.%s has an exit path with no %s.%s; release on every path or defer the unlock", recv, acquire, recv, release)
				}
				return true
			})
		}
	}
}

// syncLockCall reports the acquire method name ("Lock" or "RLock") when the
// call statically resolves to sync.Mutex.Lock, sync.RWMutex.Lock or
// sync.RWMutex.RLock, and "" otherwise.
func syncLockCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	if _, ok := lockPairs[fn.Name()]; ok {
		return fn.Name()
	}
	return ""
}

// lockRecvString renders the receiver of a lock/unlock call for pairing:
// the selector prefix of `db.mu.Lock()` is "db.mu".
func lockRecvString(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X)
	}
	return ""
}

// nodeReleases reports whether the CFG node contains a call to the given
// sync release method on the same receiver expression. Function literals
// inside the node do not count: their body runs at another time.
func nodeReleases(info *types.Info, n ast.Node, release, recv string) bool {
	found := false
	root := n
	cfg.InspectNode(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if _, ok := x.(*ast.FuncLit); ok && x != root {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" &&
			fn.Name() == release && lockRecvString(call) == recv {
			found = true
		}
		return true
	})
	return found
}
