package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced pass. Spans of one operation
// share Op; Parent is the id of the span that caused this one, 0 for an
// operation's root. Start and End are nanoseconds since the trace began.
// Every span is recorded from the benchmark's own files, around calls into
// the program; spans inside the program are a later change.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int, name string) int {
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.now()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = t.now() }

func (t *tracer) dur(id int) time.Duration {
	return time.Duration(t.spans[id-1].End - t.spans[id-1].Start)
}

// synthetic records a child the benchmark did not time itself: the engine's
// own Elapsed, placed at the end of its parent (the engine runs last; what
// precedes it in the parent is dispatch).
func (t *tracer) synthetic(parent int, name string, d time.Duration) {
	p := t.spans[parent-1]
	start := max(p.Start, p.End-int64(d))
	t.spans = append(t.spans, span{Op: p.Op, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start, End: p.End})
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time in nanoseconds, by span id: its
// duration minus the part of its interval that its children cover. Children
// are clipped to the parent and overlapping children are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}
