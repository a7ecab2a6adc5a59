package cfg

import "go/ast"

// PathToExit reports whether some path from the given node (identified by
// its block and its index within Block.Nodes) can reach the function exit
// without first passing a node for which stop returns true. The node at
// (from, idx) itself is not tested; the search starts at the next node.
//
// This is the workhorse query of the discipline analyzers: "is there an
// exit path with no Unlock", "is there an exit path with no Wait". Paths
// that abort (panic, os.Exit, ...) never reach Exit and therefore never
// witness a leak.
func (g *Graph) PathToExit(from *Block, idx int, stop func(ast.Node) bool) bool {
	// visited marks blocks whose full node list has been scanned, so each
	// block is processed at most once from its top.
	visited := make([]bool, len(g.Blocks))
	var walk func(b *Block, start int) bool
	walk = func(b *Block, start int) bool {
		if start == 0 {
			if visited[b.Index] {
				return false
			}
			visited[b.Index] = true
		}
		for i := start; i < len(b.Nodes); i++ {
			if stop(b.Nodes[i]) {
				return false
			}
		}
		if b == g.Exit {
			return true
		}
		for _, s := range b.Succs {
			if walk(s, 0) {
				return true
			}
		}
		return false
	}
	return walk(from, idx+1)
}
