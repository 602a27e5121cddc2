package gating

// This file is the word-at-a-time evaluation of the timing-neutral
// schemes: instead of replaying a trace cycle by cycle through
// OnIssue/Gates/OnCycle callbacks, it derives each scheme's complete
// power.Tally — the order-free integral the accountant would have
// accumulated — directly from the bit-packed columns and schedule-mirror
// aggregates usagetrace builds at decode time. The scheme semantics are
// closed-form here because each structure class is independent:
//
//   - a gated class's enabled-instance sum is a decode-time aggregate of
//     the mirrored DCG schedule (popcounts of schedule masks, summed
//     port/bus counts, summed latch occupancy);
//   - an ungated class burns capacity x cycles;
//   - gate violations are popcounts of OR'd violation bit-planes
//     (usage-exceeded-schedule planes for gated classes, lazy
//     usage-exceeded-capacity planes for ungated ones).
//
// The tallies are exact — integer sums plus float series reproduced in
// the scalar accountant's operation order — so Results derived from them
// are bit-identical to scalar replay (golden-tested in internal/core).

import (
	"math/bits"

	"dcg/internal/config"
	"dcg/internal/cpu"
	"dcg/internal/power"
	"dcg/internal/usagetrace"
)

// PackedTally derives the power.Tally a full scalar replay of the scheme
// over the decoded trace would produce, plus the scheme's lead-violation
// count, without feeding the scheme a single cycle. ok is false when the
// scheme cannot be packed-evaluated and the caller must fall back to
// scalar replay: an unrecognized or wrapped scheme type (PLB throttles,
// Observed carries a telemetry recorder), a scheme built for a different
// machine than the trace's, or a bus schedule exceeding the histogram's
// exact range. The scheme instance is never mutated.
func PackedTally(d *usagetrace.Decoded, s Scheme, machine config.Config) (t power.Tally, lead uint64, ok bool) {
	p := d.Packed()
	if p == nil || d.BackLatchStages() != machine.BackEndLatchStages() {
		return power.Tally{}, 0, false
	}
	// The gate-violation predicates: at most 5 (units, latches, dcache,
	// and two bus planes when gated).
	viol := make([][]uint64, 0, 5)
	switch sc := s.(type) {
	case *None:
		if sc.cfg != machine {
			return power.Tally{}, 0, false
		}
		t = fullTally(p, machine)
		t.ControlCycles = 0
		viol = appendOverFull(viol, p, machine)
	case *DCG:
		if sc.cfg != machine {
			return power.Tally{}, 0, false
		}
		if t, viol, ok = dcgTally(p, machine, sc.opts, viol); !ok {
			return power.Tally{}, 0, false
		}
		lead = p.LeadViolations()
	case *Oracle:
		if sc.cfg != machine || sc.frontDepth < 1 {
			return power.Tally{}, 0, false
		}
		if t, viol, ok = dcgTally(p, machine, AllDCGOptions(), viol); !ok {
			return power.Tally{}, 0, false
		}
		lead = p.LeadViolations()
		t.IssueQueueFracSum = p.IssueQueueFracSum(machine.WindowSize)
		t.FrontFullCycles = 0
		t.FrontSlotsOn = p.FrontSlotsSum(sc.frontDepth)
	case *Lector:
		if sc.cfg != machine {
			return power.Tally{}, 0, false
		}
		t = fullTally(p, machine)
		t.ControlCycles = 0
		lectorOccupancy(p, machine, &t)
		viol = appendOverFull(viol, p, machine)
	default:
		return power.Tally{}, 0, false
	}
	t.GateViolations = p.ViolationCycles(viol...)
	return t, lead, true
}

// lectorOccupancy fills the lector scheme's stage-level latch terms in
// closed form: an occupied stage burns width slots, an empty one zero,
// and the control-gate count is the empty-stage total with the all-idle
// cycles collapsed to the single master gate — exactly the scalar Gates
// rule.
func lectorOccupancy(p *usagetrace.Packed, cfg config.Config, t *power.Tally) {
	stages := cfg.BackEndLatchStages()
	var nz, anyNZ int64
	for w := 0; w < p.Words(); w++ {
		union := uint64(0)
		for s := 0; s < stages; s++ {
			v := p.LatchNonZeroPlane(s)[w]
			nz += int64(bits.OnesCount64(v))
			union |= v
		}
		anyNZ += int64(bits.OnesCount64(union))
	}
	n := int64(p.Cycles())
	st := int64(stages)
	t.BackSlotsOn = int64(cfg.IssueWidth) * nz
	gateCycles := st*n - nz
	if st > 1 {
		gateCycles -= (n - anyNZ) * (st - 1)
	}
	t.ControlGateCycles = gateCycles
}

// appendOverFull appends the four ungated-class capacity predicates (the
// violation set of the baseline and lector schemes).
func appendOverFull(viol [][]uint64, p *usagetrace.Packed, cfg config.Config) [][]uint64 {
	return append(viol,
		p.OverFullUnits(fuCounts(cfg)),
		p.OverFullDPorts(cfg.DL1.Ports),
		p.OverFullBus(cfg.IssueWidth),
		p.OverFullLatch(cfg.IssueWidth))
}

// fuCounts collects the machine's FU pool sizes indexed by cpu.FUType.
func fuCounts(cfg config.Config) [cpu.NumFUTypes]int {
	return [cpu.NumFUTypes]int{
		cpu.FUIntALU:  cfg.FU.IntALU,
		cpu.FUIntMult: cfg.FU.IntMult,
		cpu.FUFPALU:   cfg.FU.FPALU,
		cpu.FUFPMult:  cfg.FU.FPMult,
	}
}

// fullTally is the everything-on tally shared by the baseline scheme and
// every ungated structure class: capacity x cycles for each structure,
// issue queue fully enabled, front latches never gated, control overhead
// charged every cycle (DCG's Gates sets ControlOverhead unconditionally;
// None zeroes it after).
func fullTally(p *usagetrace.Packed, cfg config.Config) power.Tally {
	n := p.Cycles()
	var t power.Tally
	t.Cycles = n
	counts := fuCounts(cfg)
	for ft := 0; ft < int(cpu.NumFUTypes); ft++ {
		t.UnitOn[ft] = int64(n) * int64(bits.OnesCount32(mask(counts[ft])))
	}
	t.BackSlotsOn = int64(n) * int64(cfg.IssueWidth*cfg.BackEndLatchStages())
	t.FrontFullCycles = n
	t.DPortsOn = int64(n) * int64(cfg.DL1.Ports)
	t.BusOn = int64(n) * int64(cfg.IssueWidth)
	// One 1.0 per cycle: exact below 2^53 cycles, matching the scalar
	// accountant's repeated adds bit for bit.
	t.IssueQueueFracSum = float64(n)
	t.ControlCycles = n
	return t
}

// dcgTally is the tally of a DCG controller with the given ablation
// options: each gated class reads the decode-time schedule aggregates,
// each ungated class the full-capacity terms, and the violation planes
// appended to viol are exactly the planes the scalar accountant's
// per-cycle predicate would test. ok is false when the bus schedule
// exceeds the histogram's exact range.
func dcgTally(p *usagetrace.Packed, cfg config.Config, opts DCGOptions, viol [][]uint64) (power.Tally, [][]uint64, bool) {
	t := fullTally(p, cfg)

	if opts.GateUnits {
		for ft := 0; ft < int(cpu.NumFUTypes); ft++ {
			t.UnitOn[ft] = p.UnitSchedOnSum(cpu.FUType(ft))
		}
		viol = append(viol, p.UnitSchedViolationPlane())
	} else {
		viol = append(viol, p.OverFullUnits(fuCounts(cfg)))
	}

	if opts.GateLatches {
		t.BackSlotsOn = p.BackLatchSum()
		// Gated latches copy the usage vector: enabled slots always cover
		// used slots, no violation plane.
	} else {
		viol = append(viol, p.OverFullLatch(cfg.IssueWidth))
	}

	if opts.GateDCache {
		t.DPortsOn = p.DPortSchedSum()
		viol = append(viol, p.DPortSchedViolationPlane())
	} else {
		viol = append(viol, p.OverFullDPorts(cfg.DL1.Ports))
	}

	if opts.GateBus {
		sum, ok := p.BusSchedCappedSum(cfg.IssueWidth)
		if !ok {
			return power.Tally{}, nil, false
		}
		t.BusOn = sum
		// Enabled drivers are min(schedule, width): usage can exceed that
		// by beating the raw schedule or by exceeding the width cap.
		viol = append(viol, p.BusSchedViolationPlane())
		viol = append(viol, p.OverFullBus(cfg.IssueWidth))
	} else {
		viol = append(viol, p.OverFullBus(cfg.IssueWidth))
	}

	return t, viol, true
}
