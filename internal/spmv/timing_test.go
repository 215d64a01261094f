package spmv

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
)

// TestPhaseSampler checks arming, the sample lifecycle, and that phase
// durations look like a breakdown of a real multiply on both schedule
// families.
func TestPhaseSampler(t *testing.T) {
	for _, fused := range []bool{true, false} {
		name := "twophase"
		if fused {
			name = "fused"
		}
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			a := randomMatrix(r, 64, 64, 400)
			const k = 4
			xp := make([]int, a.Cols)
			yp := make([]int, a.Rows)
			for j := range xp {
				xp[j] = r.Intn(k)
			}
			for i := range yp {
				yp[i] = r.Intn(k)
			}
			var d *distrib.Distribution
			if fused {
				d = core.Balanced(a, xp, yp, k, core.BalanceConfig{})
			} else {
				d = &distrib.Distribution{A: a, K: k, Owner: make([]int, a.NNZ()), XPart: xp, YPart: yp}
				for p := range d.Owner {
					d.Owner[p] = r.Intn(k)
				}
			}
			withGOMAXPROCS(t, 4) // four executors, whatever the host has
			eng, err := NewEngine(d)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			x := make([]float64, 64)
			y := make([]float64, 64)
			for i := range x {
				x[i] = float64(i%7) - 3
			}

			// Disarmed: no sample even after a multiply.
			if err := eng.Multiply(x, y); err != nil {
				t.Fatal(err)
			}
			if _, ok := eng.LastPhases(); ok {
				t.Fatal("disarmed engine must not report phases")
			}

			var ps PhaseSampler = eng // Engine satisfies the optional interface
			ps.SamplePhases(true)
			if _, ok := ps.LastPhases(); ok {
				t.Fatal("armed but unsampled engine must not report phases")
			}
			if err := eng.Multiply(x, y); err != nil {
				t.Fatal(err)
			}
			ph, ok := ps.LastPhases()
			if !ok {
				t.Fatal("armed engine must report phases after a multiply")
			}
			for _, d := range []time.Duration{ph.Expand, ph.Compute, ph.Fold} {
				if d < 0 || d > time.Minute {
					t.Fatalf("implausible phase duration: %+v", ph)
				}
			}
			if ph.Expand+ph.Compute+ph.Fold <= 0 {
				t.Fatalf("phase sum must be positive: %+v", ph)
			}

			// Transpose and block paths sample too.
			yt := make([]float64, 64)
			if err := eng.MultiplyTranspose(x, yt); err != nil {
				t.Fatal(err)
			}
			if _, ok := ps.LastPhases(); !ok {
				t.Fatal("transpose multiply must refresh the sample")
			}
			X := [][]float64{x, x}
			Y := [][]float64{make([]float64, 64), make([]float64, 64)}
			if err := eng.MultiplyMulti(X, Y); err != nil {
				t.Fatal(err)
			}
			if _, ok := ps.LastPhases(); !ok {
				t.Fatal("block multiply must refresh the sample")
			}

			// With the helpers engaged processor 0's tickets run on whichever
			// executor claims them: the sample is still processor 0's, complete
			// after every multiply (and, under -race, ordered by the barrier).
			engageHelpers(t, eng)
			for i := 0; i < 200; i++ {
				if err := eng.Multiply(x, y); err != nil {
					t.Fatal(err)
				}
				ph, ok := ps.LastPhases()
				if !ok || ph.Expand < 0 || ph.Compute < 0 || ph.Fold < 0 || ph.Expand+ph.Compute+ph.Fold <= 0 {
					t.Fatalf("multiply %d with helpers: phases %+v, ok %v", i, ph, ok)
				}
			}

			ps.SamplePhases(false)
			if _, ok := ps.LastPhases(); ok {
				t.Fatal("disarming must clear the sample")
			}
		})
	}
}
