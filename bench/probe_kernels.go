package main

import (
	"time"

	"twsearch/internal/dtw"
	"twsearch/internal/wire"
	"twsearch/seqdb"
)

// The probe_*.go files are the only ones that import internal packages.
// Each probe times direct calls into one layer's public functions, with a
// fixed iteration count, and reports the median of probeBatches batches.

const probeBatches = 5

// medianBatch runs f probeBatches times and returns the median duration.
func medianBatch(f func()) time.Duration {
	ds := make([]float64, probeBatches)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// probeSink keeps the compiler from discarding a probed call's result.
var probeSink float64

// probeQueryLen is |Q| for the kernel probes; probeBand is the window of the
// banded row and the envelope.
const (
	probeQueryLen = 40
	probeBand     = 2
)

// probeDTW times the dynamic-programming row kernels and the envelope
// kernels on values cut from the workload's data. fills is how many times a
// table of |Q| rows is filled per batch.
func probeDTW(vals []float64, fills int) map[string]Metric {
	q := vals[:probeQueryLen]
	rows := vals[len(vals)-probeQueryLen:]
	out := map[string]Metric{}

	perCell := func(name string, t *dtw.Table, add func(v float64)) {
		t.Reset()
		d := medianBatch(func() {
			for i := 0; i < fills; i++ {
				t.Truncate(0)
				for _, v := range rows {
					add(v)
				}
			}
		})
		cells := float64(t.Cells()) / probeBatches
		out[name] = Metric{Value: float64(d) / cells, Unit: "ns", N: int(cells)}
	}
	value := dtw.NewTable(q)
	perCell("dtw.addrow_value_ns_per_cell", value, func(v float64) { value.AddRowValue(v) })
	interval := dtw.NewTable(q)
	perCell("dtw.addrow_interval_ns_per_cell", interval, func(v float64) { interval.AddRowInterval(v-0.25, v+0.25) })
	banded := dtw.NewTableWindow(q, probeBand)
	perCell("dtw.addrow_banded_ns_per_cell", banded, func(v float64) { banded.AddRowInterval(v-0.25, v+0.25) })

	env := dtw.NewEnvelope(q, probeBand)
	var sink float64
	calls := fills * 10
	d := medianBatch(func() {
		for i := 0; i < calls; i++ {
			sink += dtw.LBKeogh(rows, env)
		}
	})
	points := calls * len(rows)
	out["dtw.lbkeogh_ns_per_point"] = Metric{Value: float64(d) / float64(points), Unit: "ns", N: points}
	d = medianBatch(func() {
		for i := 0; i < calls; i++ {
			env.Bind(q, probeBand)
		}
	})
	out["dtw.envelope_bind_ns"] = Metric{Value: float64(d) / float64(calls), Unit: "ns", N: calls}
	probeSink = sink
	return out
}

// probeWire times the match codec over answers recorded from the workload.
func probeWire(answers []seqdb.Match, rounds int) map[string]Metric {
	out := map[string]Metric{}
	if len(answers) == 0 {
		return out
	}
	wms := make([]wire.Match, len(answers))
	for i, m := range answers {
		wms[i] = wire.Match{SeqID: m.SeqID, Seq: m.Seq, Start: m.Start, End: m.End, Distance: m.Distance}
	}
	bodies := make([][]byte, len(wms))
	total := 0
	for i := range wms {
		bodies[i] = wms[i].Encode(nil)
		total += len(bodies[i])
	}
	n := rounds * len(wms)
	buf := make([]byte, 0, 256)
	d := medianBatch(func() {
		for r := 0; r < rounds; r++ {
			for i := range wms {
				buf = wms[i].Encode(buf[:0])
			}
		}
	})
	out["wire.match_encode_ns"] = Metric{Value: float64(d) / float64(n), Unit: "ns", N: n}
	var derr error
	d = medianBatch(func() {
		for r := 0; r < rounds; r++ {
			for _, b := range bodies {
				if _, err := wire.DecodeMatch(b); err != nil {
					derr = err
				}
			}
		}
	})
	if derr == nil {
		out["wire.match_decode_ns"] = Metric{Value: float64(d) / float64(n), Unit: "ns", N: n}
	}
	out["wire.match_bytes"] = Metric{Value: float64(total) / float64(len(wms)), Unit: "B", N: len(wms)}
	return out
}
