package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WireConform verifies encode/decode symmetry for wire messages by parsing
// the two sides of each pair as AST twins. An encoder is a method named
// Encode (paired by receiver type) or a free function Encode<T>; its twin
// is the package function Decode<T>. Each body is lowered to a sequence of
// wire operations — fixed-width scalars by width class (a float64 and a
// uint64 are both 8 wire bytes), length-prefixed strings and float slices,
// and loops over repeated groups — and the two sequences must agree
// operation for operation. Loops over fixed-size composite literals unroll,
// and if/else branches that write the same layout on both arms collapse
// (the `if b { append 1 } else { append 0 }` boolean idiom). Any other
// data-dependent branch in a codec is itself a finding: the protocol has
// one version and one layout per message, so a field that is on the wire
// only sometimes is a field the peer cannot parse. Protocol skew thus
// becomes a lint finding instead of a wire_test escape.
var WireConform = &Analyzer{
	Name: "wireconform",
	Doc: "encode/decode wire skew: the decoder's field order, widths or " +
		"loops do not mirror the encoder's; fix whichever side is wrong " +
		"before the frames disagree on the wire",
	Run: runWireConform,
}

// wireOp is one operation of a lowered codec body. Kinds:
//
//	b1/b2/b4/b8  fixed-width scalar, by width class
//	str          u32-length-prefixed string
//	floats       u32-count-prefixed []float64
//	bytes        variable-length raw bytes (spread append)
//	loop         dynamically repeated group (sub)
//	cond         data-dependent group that did not collapse (sub/subElse)
type wireOp struct {
	kind    string
	key     string // canonical condition text for cond
	pos     token.Pos
	read    bool // extracted from a decoder
	sub     []wireOp
	subElse []wireOp
}

// wireKindDesc names an op kind in a finding.
func wireKindDesc(kind string) string {
	switch kind {
	case "b1":
		return "a 1-byte scalar"
	case "b2":
		return "a 2-byte scalar"
	case "b4":
		return "a 4-byte scalar"
	case "b8":
		return "an 8-byte scalar"
	case "str":
		return "a length-prefixed string"
	case "floats":
		return "a length-prefixed float64 slice"
	case "bytes":
		return "variable raw bytes"
	case "loop":
		return "a repeated group"
	}
	return kind
}

func runWireConform(pass *Pass) {
	if !pass.Library {
		return
	}
	encs := make(map[string]*ast.FuncDecl)
	decs := make(map[string]*ast.FuncDecl)
	var keys []string
	seen := make(map[string]bool)
	note := func(key string) {
		if !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset.Position(file.Pos())) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				if recv := recvTypeName(fd); name == "Encode" && recv != "" {
					encs[recv] = fd
					note(recv)
				}
				continue
			}
			if rest, ok := strings.CutPrefix(name, "Encode"); ok && rest != "" {
				encs[rest] = fd
				note(rest)
			}
			if rest, ok := strings.CutPrefix(name, "Decode"); ok && rest != "" {
				decs[rest] = fd
				note(rest)
			}
		}
	}
	for _, key := range keys {
		enc, dec := encs[key], decs[key]
		if enc == nil || dec == nil {
			continue // WriteHello-style helpers pair by hand, not by name
		}
		encOps := (&wireSide{pass: pass}).stmts(enc.Body.List)
		decOps := (&wireSide{pass: pass, decode: true}).stmts(dec.Body.List)
		if m := findWireMismatch(key, encOps, decOps); m != nil {
			pos := m.pos
			if pos == token.NoPos {
				pos = dec.Name.Pos()
			}
			pass.ReportPos(pos, "%s", m.text)
		}
	}
}

// recvTypeName returns the bare receiver type name of a method declaration.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// wireSide lowers one codec body to its wire-operation sequence. The same
// walker serves both sides; decode selects the read vocabulary (Reader
// accessor methods) over the write one (append helpers).
type wireSide struct {
	pass   *Pass
	decode bool
}

func (ws *wireSide) stmts(list []ast.Stmt) []wireOp {
	var out []wireOp
	for i, s := range list {
		// `if c { ...; return } rest...` is if/else in disguise: the
		// statements after a terminating if are its implicit else arm
		// (EncodeError's typed-error early return, error guards).
		if ifs, ok := s.(*ast.IfStmt); ok && ifs.Else == nil && endsInReturn(ifs.Body) {
			if ifs.Init != nil {
				out = append(out, ws.stmt(ifs.Init)...)
			}
			body := ws.stmts(ifs.Body.List)
			alt := ws.stmts(list[i+1:])
			return append(out, ws.branch(ifs.Cond, body, alt)...)
		}
		out = append(out, ws.stmt(s)...)
	}
	return out
}

// endsInReturn reports whether the block's last statement is a return.
func endsInReturn(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	_, ok := b.List[len(b.List)-1].(*ast.ReturnStmt)
	return ok
}

// branch folds a two-armed layout split into ops: a wire-invisible
// collapse, or an opaque data-dependent cond.
func (ws *wireSide) branch(cond ast.Expr, body, alt []wireOp) []wireOp {
	if wireOpsEqual(body, alt) {
		// Both arms lay out the same bytes (the boolean 0/1 idiom, or
		// two op-free error guards): the branch is wire-invisible.
		return body
	}
	return []wireOp{{kind: "cond", key: types.ExprString(cond),
		pos: cond.Pos(), read: ws.decode, sub: body, subElse: alt}}
}

func (ws *wireSide) stmt(s ast.Stmt) []wireOp {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return ws.stmts(s.List)
	case *ast.IfStmt:
		var out []wireOp
		if s.Init != nil {
			out = append(out, ws.stmt(s.Init)...)
		}
		body := ws.stmts(s.Body.List)
		var alt []wireOp
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			alt = ws.stmts(e.List)
		case *ast.IfStmt:
			alt = ws.stmt(e)
		}
		return append(out, ws.branch(s.Cond, body, alt)...)
	case *ast.ForStmt:
		var out []wireOp
		if s.Init != nil {
			out = append(out, ws.stmt(s.Init)...)
		}
		if body := ws.stmts(s.Body.List); len(body) > 0 {
			out = append(out, wireOp{kind: "loop", pos: s.Pos(), read: ws.decode, sub: body})
		}
		return out
	case *ast.RangeStmt:
		body := ws.stmts(s.Body.List)
		if len(body) == 0 {
			return nil
		}
		if n, ok := literalLen(s.X); ok {
			// Ranging over a fixed-size composite literal writes the group
			// exactly n times: unroll so it matches n scalar reads.
			var out []wireOp
			for i := 0; i < n; i++ {
				out = append(out, body...)
			}
			return out
		}
		return []wireOp{{kind: "loop", pos: s.Pos(), read: ws.decode, sub: body}}
	default:
		return ws.scan(s)
	}
}

// scan collects the op calls of one non-branching statement in source
// order. Function literals are separate codecs and do not contribute.
func (ws *wireSide) scan(n ast.Node) []wireOp {
	var out []wireOp
	root := ast.Node(n)
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok && x != root {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			if op, ok := ws.opFor(call); ok {
				out = append(out, op)
			}
		}
		return true
	})
	return out
}

// opFor classifies one call as a wire operation of this side's vocabulary.
func (ws *wireSide) opFor(call *ast.CallExpr) (wireOp, bool) {
	op := func(kind string) (wireOp, bool) {
		return wireOp{kind: kind, pos: call.Pos(), read: ws.decode}, true
	}
	if ws.decode {
		fn := calleeFunc(ws.pass.Info, call)
		if fn == nil {
			return wireOp{}, false
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil ||
			!strings.Contains(types.TypeString(sig.Recv().Type(), nil), "Reader") {
			return wireOp{}, false
		}
		switch fn.Name() {
		case "U8", "Bool":
			return op("b1")
		case "U16":
			return op("b2")
		case "U32":
			return op("b4")
		case "U64", "I64", "F64":
			return op("b8")
		case "String":
			return op("str")
		case "Floats":
			return op("floats")
		}
		return wireOp{}, false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := ws.pass.Info.Uses[id].(*types.Builtin); builtin && id.Name == "append" {
			if call.Ellipsis.IsValid() {
				return op("bytes")
			}
			if len(call.Args) == 2 && isByteExpr(ws.pass.Info, call.Args[1]) {
				return op("b1")
			}
			return wireOp{}, false
		}
	}
	fn := calleeFunc(ws.pass.Info, call)
	if fn == nil {
		return wireOp{}, false
	}
	switch fn.Name() {
	case "AppendUint16":
		return op("b2")
	case "AppendUint32":
		return op("b4")
	case "AppendUint64":
		return op("b8")
	case "appendString":
		return op("str")
	case "appendFloats":
		return op("floats")
	}
	return wireOp{}, false
}

// isByteExpr reports whether the expression's type is byte-sized.
func isByteExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch basic.Kind() {
	case types.Uint8, types.Int8, types.UntypedInt:
		return true
	}
	return false
}

// literalLen returns the element count of a composite-literal expression.
func literalLen(e ast.Expr) (int, bool) {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return 0, false
	}
	return len(lit.Elts), true
}

// wireOpsEqual compares two op sequences structurally (positions ignored).
func wireOpsEqual(a, b []wireOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || a[i].key != b[i].key ||
			!wireOpsEqual(a[i].sub, b[i].sub) || !wireOpsEqual(a[i].subElse, b[i].subElse) {
			return false
		}
	}
	return true
}

// wireMismatch is the first structural divergence between the two sides.
type wireMismatch struct {
	pos  token.Pos
	text string
}

// findWireMismatch walks the twin sequences in lockstep and returns the
// first divergence, or nil when the layouts agree. One finding per pair:
// a single skew usually desynchronizes everything after it, and a cascade
// of follow-on reports would bury the cause.
func findWireMismatch(msg string, enc, dec []wireOp) *wireMismatch {
	for i := 0; i < len(enc) && i < len(dec); i++ {
		e, d := enc[i], dec[i]
		if e.kind == "cond" {
			return condMismatch(msg, e)
		}
		if d.kind == "cond" {
			return condMismatch(msg, d)
		}
		if e.kind != d.kind {
			return &wireMismatch{pos: d.pos, text: fmt.Sprintf(
				"wire skew in %s: field %d is written as %s but read as %s",
				msg, i, wireKindDesc(e.kind), wireKindDesc(d.kind))}
		}
		if e.kind == "loop" {
			if m := findWireMismatch(msg, e.sub, d.sub); m != nil {
				return m
			}
		}
	}
	if len(enc) != len(dec) {
		pos := token.NoPos
		if len(enc) > len(dec) {
			pos = enc[len(dec)].pos
		} else {
			pos = dec[len(enc)].pos
		}
		return &wireMismatch{pos: pos, text: fmt.Sprintf(
			"wire skew in %s: the encoder writes %d fields at this level, the decoder reads %d",
			msg, len(enc), len(dec))}
	}
	return nil
}

// condMismatch reports a data-dependent branch that is not wire-invisible.
func condMismatch(msg string, op wireOp) *wireMismatch {
	side := "written"
	if op.read {
		side = "read"
	}
	return &wireMismatch{pos: op.pos, text: fmt.Sprintf(
		"data-dependent wire layout in %s: fields are %s only when %q; a layout must be unconditional, or the peer cannot parse it",
		msg, side, op.key)}
}
