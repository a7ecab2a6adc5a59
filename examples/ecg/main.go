// ECG: matching medical signals whose rhythm varies — the paper's other
// motivating domain ("matching of voice, audio and medical signals
// (electrocardiograms)", "patients whose lung lesions have similar
// evolution characteristics").
//
// The example synthesizes ECG-like traces for several patients with
// different and drifting heart rates, then looks for a characteristic
// two-beat arrhythmia pattern. Because each patient's beats are stretched
// differently in time, only a time-warping match can find the episode in
// every trace; the example also shows the warping-window variant that
// bounds how far the rhythm may stretch.
//
//	go run ./examples/ecg
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"twsearch/seqdb"
)

// beat appends one synthetic heartbeat of the given period: a flat baseline
// with a sharp QRS-like spike, plus a slow T-wave bump. amp scales the
// spike (arrhythmic beats are taller here).
func beat(out []float64, period int, amp float64) []float64 {
	for i := 0; i < period; i++ {
		t := float64(i) / float64(period)
		v := 0.0
		switch {
		case t > 0.08 && t < 0.28: // QRS spike
			v = amp * math.Sin((t-0.08)/0.20*math.Pi)
		case t > 0.35 && t < 0.60: // T wave
			v = 0.25 * math.Sin((t-0.35)/0.25*math.Pi)
		}
		out = append(out, math.Round(v*100)/100)
	}
	return out
}

// trace builds a patient's ECG: normal beats at the patient's own (slowly
// drifting) rate, with an arrhythmic double-spike episode in the middle for
// the flagged patients.
func trace(beats, basePeriod int, arrhythmia bool) []float64 {
	var out []float64
	for b := 0; b < beats; b++ {
		period := basePeriod + (b%5 - 2) // rhythm drift
		amp := 1.0
		if arrhythmia && (b == beats/2 || b == beats/2+1) {
			amp = 2.2 // the tall double beat we search for
		}
		out = beat(out, period, amp)
	}
	return out
}

func main() {
	dir, err := os.MkdirTemp("", "twsearch-ecg-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := seqdb.Create(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Six patients, heart rates from fast (period 14 samples) to slow (24),
	// three of them with the arrhythmic episode.
	type patient struct {
		id         string
		period     int
		arrhythmia bool
	}
	patients := []patient{
		{"patient-A", 14, true},
		{"patient-B", 17, false},
		{"patient-C", 19, true},
		{"patient-D", 21, false},
		{"patient-E", 24, true},
		{"patient-F", 16, false},
	}
	for _, p := range patients {
		must(db.Add(p.id, trace(40, p.period, p.arrhythmia)))
	}
	must(db.Save())

	must(db.BuildIndex("beats", seqdb.IndexSpec{
		Method:     seqdb.MethodMaxEntropy,
		Categories: 12,
		Sparse:     true,
	}))

	// The query is the arrhythmic double beat at a rate NONE of the
	// patients has (period 18): every true episode is a stretched or
	// compressed version of it.
	query := beat(beat(nil, 18, 2.2), 18, 2.2)

	eps := 4.0
	matches, stats, err := db.SearchWith(context.Background(), "beats", query, eps, seqdb.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Report the best hit per patient.
	best := map[string]seqdb.Match{}
	for _, m := range matches {
		if b, ok := best[m.SeqID]; !ok || m.Distance < b.Distance {
			best[m.SeqID] = m
		}
	}
	fmt.Printf("query: double beat at period 18 (%d samples), eps=%.0f — %d raw matches in %v\n",
		len(query), eps, len(matches), stats.Elapsed)
	for _, p := range patients {
		if m, ok := best[p.id]; ok {
			fmt.Printf("  %s (period %2d, arrhythmia=%-5v): episode at [%d:%d], distance %.2f\n",
				p.id, p.period, p.arrhythmia, m.Start, m.End, m.Distance)
		} else {
			fmt.Printf("  %s (period %2d, arrhythmia=%-5v): no match\n", p.id, p.period, p.arrhythmia)
		}
		if (best[p.id] != seqdb.Match{}) != p.arrhythmia {
			log.Fatalf("detection wrong for %s", p.id)
		}
	}

	// Same search with a warping window: the band bounds how far the
	// rhythm may stretch, so distant rates need a wider band and the
	// constrained search does less work.
	must(db.BuildIndex("beats-windowed", seqdb.IndexSpec{
		Method:     seqdb.MethodMaxEntropy,
		Categories: 12,
		Sparse:     true,
		Window:     10,
	}))
	wMatches, wStats, err := db.SearchWith(context.Background(), "beats-windowed", query, eps, seqdb.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with warping window 10: %d matches (was %d), filter cells %d (was %d)\n",
		len(wMatches), len(matches), wStats.FilterCells, stats.FilterCells)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
