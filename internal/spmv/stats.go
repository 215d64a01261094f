package spmv

import "repro/internal/distrib"

// ScheduleStats returns the communication the engine performs per
// Multiply, counted off the compiled plan it executes: one message per
// packet, one word per payload entry, per phase. For a valid engine this
// equals the distribution's analytic Comm() — the property the
// consistency tests pin down against the build-time schedule — and it is
// the number a user should quote when reporting measured traffic.
func (e *Engine) ScheduleStats() distrib.CommStats {
	phases := []*distrib.MsgAccum{distrib.NewMsgAccum(e.d.K)}
	if !e.fused {
		phases = append(phases, distrib.NewMsgAccum(e.d.K))
	}
	for _, pr := range e.procs {
		for ph, sends := range pr.fwd.sends[:len(phases)] {
			for _, sp := range sends {
				phases[ph].Add(pr.id, sp.dest, sp.words())
			}
		}
	}
	return distrib.CombineStats(e.d.K, phases...)
}

// ScheduleStats returns the routed engine's per-phase traffic. Phase-1
// packets combine x shipments and partial sums per intermediate; phase-2
// packets are the forwards to final destinations.
func (e *RoutedEngine) ScheduleStats() distrib.CommStats {
	phase1 := distrib.NewMsgAccum(e.d.K)
	phase2 := distrib.NewMsgAccum(e.d.K)
	for _, pr := range e.rprocs {
		for _, sp := range pr.fwd.hop1 {
			phase1.Add(pr.id, sp.dest, sp.words())
		}
		for _, fp := range pr.fwd.hop2 {
			phase2.Add(pr.id, fp.dest, fp.words())
		}
	}
	return distrib.CombineStats(e.d.K, phase1, phase2)
}
