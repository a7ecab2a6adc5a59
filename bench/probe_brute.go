package main

import (
	"fmt"
	"math"

	"twsearch/internal/core"
	"twsearch/internal/multivar"
	"twsearch/internal/sequence"
	"twsearch/seqdb"
)

// bruteForce answers range operations by exhaustive scan over the
// benchmark's own copy of the data, under the index's warping window — the
// ground truth an index search must equal. (The public SeqScan entry points
// take no window, so the probe calls the scan kernels directly.)
type bruteForce struct {
	window  int
	scalar  *sequence.Dataset
	vectors *multivar.Dataset
}

func newBruteForce(d *dataset, window int) (*bruteForce, error) {
	if window <= 0 {
		window = -1
	}
	b := &bruteForce{window: window}
	if d.trajs != nil {
		b.vectors = multivar.NewDataset(2)
		for i, t := range d.trajs {
			if _, err := b.vectors.Add(multivar.Sequence{ID: d.ids[i], Points: t}); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	b.scalar = sequence.NewDataset()
	for i, s := range d.seqs {
		if _, err := b.scalar.Add(sequence.Sequence{ID: d.ids[i], Values: s}); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// position is an answer's place; the scans report it with the distance.
type position struct{ seq, start, end int }

// check compares got — an index search's answers to o — with the scan's:
// the same (sequence, start, end) set, distances within 1e-9.
func (b *bruteForce) check(o op, got []seqdb.Match) error {
	want := map[position]float64{}
	if b.vectors != nil {
		ms, _, err := multivar.SeqScan(b.vectors, o.qv, o.eps, b.window)
		if err != nil {
			return err
		}
		for _, m := range ms {
			want[position{m.Ref.Seq, m.Ref.Start, m.Ref.End}] = m.Distance
		}
	} else {
		ms, _, err := core.SeqScan(b.scalar, o.q, o.eps, b.window)
		if err != nil {
			return err
		}
		for _, m := range ms {
			want[position{m.Ref.Seq, m.Ref.Start, m.Ref.End}] = m.Distance
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("index returned %d answers, brute force %d", len(got), len(want))
	}
	for _, m := range got {
		dist, ok := want[position{m.Seq, m.Start, m.End}]
		if !ok {
			return fmt.Errorf("answer seq %d [%d,%d) is not in the brute-force set", m.Seq, m.Start, m.End)
		}
		if math.Abs(dist-m.Distance) > 1e-9 {
			return fmt.Errorf("answer seq %d [%d,%d): distance %v, brute force %v", m.Seq, m.Start, m.End, m.Distance, dist)
		}
	}
	return nil
}
