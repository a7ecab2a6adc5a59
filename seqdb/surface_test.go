package seqdb_test

import (
	"reflect"
	"strings"
	"testing"

	"twsearch/seqdb"
	"twsearch/seqdb/client"
)

// TestSearchSurface pins the search entry points of the public handles: one
// (ctx, …, opts) form per operation, and nothing beside it. A re-added
// ctx-less or options-less shim changes a list and fails here. (*core.Index
// has the same test in its own package.)
func TestSearchSurface(t *testing.T) {
	for _, tc := range []struct {
		handle any
		want   []string
	}{
		{(*seqdb.DB)(nil), []string{"SearchKNNWith", "SearchVisitWith", "SearchWith", "SeqScanCtx"}},
		{(*client.Client)(nil), []string{"SearchKNNWith", "SearchVisitWith", "SearchWith", "SeqScan"}},
	} {
		typ := reflect.TypeOf(tc.handle)
		var got []string // Method(i) is sorted by name
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; strings.HasPrefix(name, "Search") || strings.HasPrefix(name, "SeqScan") {
				got = append(got, name)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v search methods = %v, want %v", typ, got, tc.want)
		}
	}
}
