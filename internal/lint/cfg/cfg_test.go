package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildFirstFunc parses src (a complete file), builds the graph of its
// first function declaration, and returns it with the fileset.
func buildFirstFunc(t *testing.T, src string) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return Build(fset, fd)
		}
	}
	t.Fatal("no function in source")
	return nil
}

// TestGolden pins the lowering of every control construct the analyzers
// rely on: if/else, for, range (with break/continue), switch (with
// fallthrough and default), defer with a negated condition, short-circuit
// && / ||, and panic as a path terminator.
func TestGolden(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{
			name: "if",
			src: `package p
func f(a, b int) int {
	if a > b {
		return a
	}
	return b
}`,
			want: `b0(entry) [a > b] -> b2 b3
b1(exit)
b2(if.then) [return a] -> b1
b3(if.done) [return b] -> b1
`,
		},
		{
			name: "if-else",
			src: `package p
func f(a int) int {
	x := 0
	if a > 0 {
		x = 1
	} else {
		x = 2
	}
	return x
}`,
			want: `b0(entry) [x := 0; a > 0] -> b2 b4
b1(exit)
b2(if.then) [x = 1] -> b3
b3(if.done) [return x] -> b1
b4(if.else) [x = 2] -> b3
`,
		},
		{
			name: "for",
			src: `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`,
			want: `b0(entry) [s := 0; i := 0] -> b2
b1(exit)
b2(for.head) [i < n] -> b3 b4
b3(for.body) [s += i] -> b5
b4(for.done) [return s] -> b1
b5(for.post) [i++] -> b2
`,
		},
		{
			name: "for-infinite-break",
			src: `package p
func f() int {
	i := 0
	for {
		i++
		if i > 3 {
			break
		}
	}
	return i
}`,
			want: `b0(entry) [i := 0] -> b2
b1(exit)
b2(for.head) -> b3
b3(for.body) [i++; i > 3] -> b5 b6
b4(for.done) [return i] -> b1
b5(if.then) [break] -> b4
b6(if.done) -> b2
`,
		},
		{
			name: "range-break-continue",
			src: `package p
func f(xs []int) int {
	s := 0
	for _, x := range xs {
		if x < 0 {
			continue
		}
		if x > 99 {
			break
		}
		s += x
	}
	return s
}`,
			want: `b0(entry) [s := 0] -> b2
b1(exit)
b2(range.head) [_, x := range xs] -> b3 b4
b3(range.body) [x < 0] -> b5 b6
b4(range.done) [return s] -> b1
b5(if.then) [continue] -> b2
b6(if.done) [x > 99] -> b7 b8
b7(if.then) [break] -> b4
b8(if.done) [s += x] -> b2
`,
		},
		{
			name: "switch-fallthrough-default",
			src: `package p
func f(x int) int {
	y := 0
	switch x {
	case 1:
		y = 1
		fallthrough
	case 2:
		y = 2
	default:
		y = 3
	}
	return y
}`,
			want: `b0(entry) [y := 0; x; 1; 2] -> b3 b4 b5
b1(exit)
b2(switch.done) [return y] -> b1
b3(switch.case) [y = 1; fallthrough] -> b4
b4(switch.case) [y = 2] -> b2
b5(switch.case) [y = 3] -> b2
`,
		},
		{
			name: "defer-negated-cond",
			src: `package p
func f(ok bool) error {
	mu.Lock()
	defer mu.Unlock()
	if !ok {
		return errNope
	}
	return nil
}`,
			// !ok swaps the branch edges: Succs[0] (ok true) is the done
			// block, Succs[1] the then block.
			want: `b0(entry) [mu.Lock(); defer mu.Unlock(); ok] -> b3 b2
b1(exit)
b2(if.then) [return errNope] -> b1
b3(if.done) [return nil] -> b1
`,
		},
		{
			name: "short-circuit",
			src: `package p
func f(a, b, c bool) int {
	if a && (b || c) {
		return 1
	}
	return 0
}`,
			want: `b0(entry) [a] -> b4 b3
b1(exit)
b2(if.then) [return 1] -> b1
b3(if.done) [return 0] -> b1
b4(cond.and) [b] -> b2 b5
b5(cond.or) [c] -> b2 b3
`,
		},
		{
			name: "panic-terminates",
			src: `package p
func f(x int) int {
	if x < 0 {
		panic("neg")
	}
	return x
}`,
			want: `b0(entry) [x < 0] -> b2 b3
b1(exit)
b2(if.then) [panic("neg")]
b3(if.done) [return x] -> b1
`,
		},
		{
			// The chain lowers with Go's precedence — (a && b && c) || d —
			// so every false edge of the && spine lands on the || leaf, and
			// only d's false edge reaches if.done. Succs[0] is always the
			// true edge.
			name: "short-circuit-chain",
			src: `package p
func f(a, b, c, d bool) int {
	if a && b && c || d {
		return 1
	}
	return 0
}`,
			want: `b0(entry) [a] -> b6 b4
b1(exit)
b2(if.then) [return 1] -> b1
b3(if.done) [return 0] -> b1
b4(cond.or) [d] -> b2 b3
b5(cond.and) [c] -> b2 b4
b6(cond.and) [b] -> b5 b4
`,
		},
		{
			// Every aborting terminator — panic, os.Exit, log.Fatalf — ends
			// its path: the case blocks have no successors, so PathToExit
			// never counts them as leaks and only switch.done reaches exit.
			name: "panic-exit-fatal-paths",
			src: `package p
func f(x int) int {
	switch {
	case x < 0:
		panic("neg")
	case x == 0:
		os.Exit(2)
	case x > 99:
		log.Fatalf("big: %d", x)
	}
	return x
}`,
			want: `b0(entry) [x < 0; x == 0; x > 99] -> b3 b4 b5 b2
b1(exit)
b2(switch.done) [return x] -> b1
b3(switch.case) [panic("neg")]
b4(switch.case) [os.Exit(2)]
b5(switch.case) [log.Fatalf("big: %d", x)]
`,
		},
		{
			// A defer inside a loop body stays a plain node on the body
			// path (registration accumulates per iteration); the back edge
			// through if.done returns to the range head, which is why
			// deferinloop treats the pattern as a resource pile-up rather
			// than a per-iteration release.
			name: "defer-in-loop",
			src: `package p
func f(files []string) error {
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
	}
	return nil
}`,
			want: `b0(entry) -> b2
b1(exit)
b2(range.head) [_, name := range files] -> b3 b4
b3(range.body) [f, err := os.Open(name); err != nil] -> b5 b6
b4(range.done) [return nil] -> b1
b5(if.then) [return err] -> b1
b6(if.done) [defer f.Close()] -> b2
`,
		},
		{
			// The canonical cancellation poll: an unbounded loop whose body
			// selects on ctx.Done each turn. There is no select head->done
			// edge — every path through the loop passes a comm clause, which
			// is what makes the select a per-iteration poll.
			name: "select-ctx-done-poll",
			src: `package p
func f(ctx Ctx, work chan int) int {
	total := 0
	for {
		select {
		case <-ctx.Done():
			return total
		case v := <-work:
			total += v
		}
	}
}`,
			want: `b0(entry) [total := 0] -> b2
b1(exit)
b2(for.head) -> b3
b3(for.body) -> b6 b7
b4(for.done) -> b1
b5(select.done) -> b2
b6(select.comm) [<-ctx.Done(); return total] -> b1
b7(select.comm) [v := <-work; total += v] -> b5
`,
		},
		{
			// The masked-counter poll: the checkCancel call is guarded by a
			// counter test, so the poll sits on a conditional branch inside
			// the loop body rather than on every path.
			name: "masked-counter-poll",
			src: `package p
func f(s *searcher) int {
	for {
		s.n++
		if s.n&63 == 0 {
			if s.checkCancel() {
				return s.n
			}
		}
	}
}`,
			want: `b0(entry) -> b2
b1(exit)
b2(for.head) -> b3
b3(for.body) [s.n++; s.n&63 == 0] -> b5 b6
b4(for.done) -> b1
b5(if.then) [s.checkCancel()] -> b7 b8
b6(if.done) -> b2
b7(if.then) [return s.n] -> b1
b8(if.done) -> b6
`,
		},
		{
			// A for-range over a channel needs no poll: the loop exits via
			// the range head when the channel closes, so the head->done edge
			// is the cancellation path.
			name: "range-done-channel",
			src: `package p
func f(ch chan int) int {
	total := 0
	for v := range ch {
		total += v
	}
	return total
}`,
			want: `b0(entry) [total := 0] -> b2
b1(exit)
b2(range.head) [v := range ch] -> b3 b4
b3(range.body) [total += v] -> b2
b4(range.done) [return total] -> b1
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := buildFirstFunc(t, tc.src)
			if got := g.String(); got != tc.want {
				t.Errorf("graph mismatch\n--- got ---\n%s--- want ---\n%s", got, tc.want)
			}
		})
	}
}

// TestPathToExit checks the discipline query: with the unlock deferred
// right after the lock, no path escapes to exit without passing it; with
// the unlock only on one branch, the other branch leaks.
func TestPathToExit(t *testing.T) {
	stopAtUnlock := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(x ast.Node) bool {
			if sel, ok := x.(*ast.SelectorExpr); ok && sel.Sel.Name == "Unlock" {
				found = true
			}
			return !found
		})
		return found
	}

	balanced := buildFirstFunc(t, `package p
func f(ok bool) error {
	mu.Lock()
	defer mu.Unlock()
	if !ok {
		return errNope
	}
	return nil
}`)
	if balanced.PathToExit(balanced.Entry, 0, stopAtUnlock) {
		t.Errorf("deferred unlock right after lock must close every exit path")
	}

	leaky := buildFirstFunc(t, `package p
func f(ok bool) error {
	mu.Lock()
	if !ok {
		return errNope
	}
	mu.Unlock()
	return nil
}`)
	if !leaky.PathToExit(leaky.Entry, 0, stopAtUnlock) {
		t.Errorf("early return before unlock must leave an unlocked exit path")
	}

	panics := buildFirstFunc(t, `package p
func f(ok bool) {
	mu.Lock()
	if !ok {
		panic("bad")
	}
	mu.Unlock()
}`)
	if panics.PathToExit(panics.Entry, 0, stopAtUnlock) {
		t.Errorf("a panicking path never reaches exit and must not count as a leak")
	}
}
