package core

import (
	"fmt"
	"strings"
	"testing"

	"dcg/internal/cpu"
	"dcg/internal/gating"
	"dcg/internal/usagetrace"
)

// scalarSim returns a simulator pinned to the scalar fused engine — the
// reference the packed kernel is golden-tested against.
func scalarSim() *Simulator {
	sim := NewSimulator(DefaultMachine())
	sim.DisablePackedReplay = true
	return sim
}

// allDCGSubsets builds one DCG instance per ablation subset.
func allDCGSubsets() []gating.Scheme {
	cfg := DefaultMachine()
	schemes := make([]gating.Scheme, 0, 16)
	for mask := 0; mask < 16; mask++ {
		schemes = append(schemes, gating.NewDCGPartial(cfg, gating.DCGOptions{
			GateUnits:   mask&1 != 0,
			GateLatches: mask&2 != 0,
			GateDCache:  mask&4 != 0,
			GateBus:     mask&8 != 0,
		}))
	}
	return schemes
}

// TestPackedReplayMatchesScalarBitForBit is the packed-kernel golden
// test on real captures: the strict packed entry must produce, for every
// timing-neutral scheme kind, exactly the Result the scalar fused engine
// produces — bit for bit.
func TestPackedReplayMatchesScalarBitForBit(t *testing.T) {
	const insts = 40_000
	kinds := []SchemeKind{SchemeNone, SchemeDCG, SchemeOracle}
	for _, bench := range []string{"gzip", "swim"} {
		scalar := scalarSim()
		scalar.Warmup = 20_000
		tm, err := scalar.CaptureBenchmark(bench, insts)
		if err != nil {
			t.Fatal(err)
		}
		scalarRes, err := scalar.EvaluateTimingAll(tm, kinds)
		if err != nil {
			t.Fatal(err)
		}
		packed := NewSimulator(DefaultMachine())
		packed.Warmup = 20_000
		packedRes, err := packed.EvaluateTimingPacked(tm, kinds)
		if err != nil {
			t.Fatal(err)
		}
		for i, kind := range kinds {
			assertBitIdentical(t, bench+"/packed/"+kind.String(), scalarRes[i], packedRes[i])
		}
	}
}

// TestPackedReplayMatchesScalarDCGSubsets extends the packed golden test
// across all 16 DCGOptions ablation subsets on a real capture.
func TestPackedReplayMatchesScalarDCGSubsets(t *testing.T) {
	scalar := scalarSim()
	scalar.Warmup = 20_000
	tm, err := scalar.CaptureBenchmark("gcc", 30_000)
	if err != nil {
		t.Fatal(err)
	}
	scalarRes, err := scalar.EvaluateTimingSchemes(tm, allDCGSubsets())
	if err != nil {
		t.Fatal(err)
	}
	packed := NewSimulator(DefaultMachine())
	packedRes, ok, err := packed.evalPackedSchemes(tm, allDCGSubsets())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("DCG ablation subsets were not packed-evaluable")
	}
	for i := range packedRes {
		assertBitIdentical(t, "packed/"+packedRes[i].Scheme, scalarRes[i], packedRes[i])
	}
}

// craftTiming captures a fully scripted trace against the default
// machine and wraps it in a minimal Timing, so adversarial cycle
// patterns that no real workload produces can drive both replay engines.
func craftTiming(t *testing.T, usages []cpu.Usage, events map[int][]cpu.IssueEvent) *Timing {
	t.Helper()
	machine := DefaultMachine()
	stages := machine.BackEndLatchStages()
	rec, err := usagetrace.NewRecorder("adversarial", stages)
	if err != nil {
		t.Fatal(err)
	}
	for c := range usages {
		for _, ev := range events[c] {
			ev.Cycle = uint64(c)
			rec.OnIssue(ev)
		}
		u := usages[c]
		u.Cycle = uint64(c)
		if u.BackLatch == nil {
			u.BackLatch = make([]int, stages)
		}
		rec.OnCycle(&u)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	tm := &Timing{Benchmark: "adversarial", Machine: machine, Trace: tr}
	tm.CPUStats.Cycles = uint64(len(usages))
	return tm
}

// TestPackedReplayAdversarialTraces golden-tests the packed kernel
// against the scalar engine on crafted traces that hit the
// representation's edges: the empty trace, all-zero usage, saturated FU
// masks with over-capacity ports/buses/latches (gate violations on every
// class), a single-cycle trace, lengths on every word-boundary edge, and
// a cycle count indivisible by 64 carrying lead-violating,
// ring-wrapping, and schedule-escaping events.
func TestPackedReplayAdversarialTraces(t *testing.T) {
	kinds := []SchemeKind{SchemeNone, SchemeDCG, SchemeOracle, SchemeLector}

	traces := map[string]*Timing{}

	// No cycles at all: zero words in every plane.
	traces["zero-cycle"] = craftTiming(t, nil, nil)

	// All-zero usage, partial tail word.
	traces["all-zero"] = craftTiming(t, make([]cpu.Usage, 100), nil)

	// Saturated masks and over-capacity counts every cycle: the default
	// machine has 6/2/4/4 units, 2 ports, issue width 8 — every cycle
	// violates every structure class, in a full 64-cycle word.
	sat := make([]cpu.Usage, 64)
	for c := range sat {
		sat[c] = cpu.Usage{
			IntALUBusy: ^uint32(0), IntMultBusy: ^uint32(0),
			FPALUBusy: ^uint32(0), FPMultBusy: ^uint32(0),
			DPortUsed: 5, ResultBus: 20, FetchCount: 8, WindowOccupancy: 128,
			// Stage 0 is over-width (9 > issue width 8) but the total stays
			// within aggregate capacity, so Validate accepts the accounting
			// while the over-full latch plane still fires every cycle.
			BackLatch: []int{9, 8, 8, 8, 7},
		}
	}
	traces["saturated"] = craftTiming(t, sat, nil)

	// Single cycle.
	traces["single-cycle"] = craftTiming(t, []cpu.Usage{{
		IssueCount: 1, IntALUBusy: 1, FetchCount: 3, WindowOccupancy: 40,
	}}, nil)

	// 131 cycles (tail word), scripted events: a covered grant, a
	// zero-lead (violating) event, a far-future ring-wrapping latency,
	// usage escaping the schedule, and a unit index past the pool size
	// (exercising the 32-bit mask shift semantics both engines share).
	n := 131
	usages := make([]cpu.Usage, n)
	for c := range usages {
		usages[c] = cpu.Usage{
			IssueCount: c % 4, CommitCount: c % 5, FetchCount: c % 9,
			WindowOccupancy: c % 129,
			BackLatch:       []int{c % 3, c % 4, c % 5, c % 2, c % 7},
		}
	}
	for c := 7; c <= 9; c++ {
		usages[c].IntALUBusy = 1 << 2
	}
	usages[12].IntALUBusy = 1 << 3 // never granted: schedule violation
	usages[20].DPortUsed = 1       // covered by the scheduled load
	usages[21].DPortUsed = 1       // not covered
	usages[30].ResultBus = 1       // covered writeback
	events := map[int][]cpu.IssueEvent{
		5: {{
			FUIdx: 2, FUType: cpu.FUIntALU, FUStart: 7, FULat: 3,
			IsLoad: true, DPortCycle: 20,
			WritesReg: true, ResultBusCycle: 30,
		}},
		40: {{ // zero lead on all three aspects
			FUIdx: 0, FUType: cpu.FUIntMult, FUStart: 40, FULat: 1,
			IsLoad: true, DPortCycle: 40,
			WritesReg: true, ResultBusCycle: 40,
		}},
		50: {{ // latency far past the schedule horizon
			FUIdx: 1, FUType: cpu.FUFPALU, FUStart: 52, FULat: 3 * 8192,
		}},
		60: {{ // unit index beyond any pool: both engines shift it out
			FUIdx: 40, FUType: cpu.FUFPMult, FUStart: 62, FULat: 2,
		}},
	}
	traces["tail-word-events"] = craftTiming(t, usages, events)

	// Lengths on every word-boundary edge — one bit short of a word, one
	// full word, a partial tail, many words — with busy units, ports,
	// buses and latches plus a steady stream of scheduled events.
	for _, n := range []int{63, 64, 1000} {
		usages := make([]cpu.Usage, n)
		for c := range usages {
			usages[c] = cpu.Usage{
				IssueCount: c % 4, CommitCount: c % 5, FetchCount: c % 9,
				IntALUBusy: uint32(c) & 0x3f, DPortUsed: c % 3, ResultBus: c % 5,
				WindowOccupancy: c % 129,
				BackLatch:       []int{c % 3, c % 4, c % 5, c % 2, c % 7},
			}
		}
		events := map[int][]cpu.IssueEvent{}
		for c := 0; c+4 < n; c += 13 {
			events[c] = []cpu.IssueEvent{{
				FUIdx: c % 4, FUType: cpu.FUType(c % int(cpu.NumFUTypes)),
				FUStart: uint64(c + 2), FULat: 1 + c%3,
				IsLoad: true, DPortCycle: uint64(c + 3),
				WritesReg: true, ResultBusCycle: uint64(c + 4),
			}}
		}
		traces[fmt.Sprintf("word-boundary-%d", n)] = craftTiming(t, usages, events)
	}

	for name, tm := range traces {
		t.Run(name, func(t *testing.T) {
			scalar := scalarSim()
			scalarRes, err := scalar.EvaluateTimingAll(tm, kinds)
			if err != nil {
				t.Fatalf("scalar: %v", err)
			}
			packed := NewSimulator(DefaultMachine())
			packedRes, err := packed.EvaluateTimingPacked(tm, kinds)
			if err != nil {
				t.Fatalf("packed: %v", err)
			}
			for i, kind := range kinds {
				assertBitIdentical(t, kind.String(), scalarRes[i], packedRes[i])
			}

			scalarSub, err := scalar.EvaluateTimingSchemes(tm, allDCGSubsets())
			if err != nil {
				t.Fatalf("scalar subsets: %v", err)
			}
			packedSub, ok, err := packed.evalPackedSchemes(tm, allDCGSubsets())
			if err != nil {
				t.Fatalf("packed subsets: %v", err)
			}
			if !ok {
				t.Fatal("subsets not packed-evaluable")
			}
			for i := range packedSub {
				assertBitIdentical(t, packedSub[i].Scheme, scalarSub[i], packedSub[i])
			}
		})
	}

	// The saturated trace must actually report violations — silence here
	// would mean the planes compared equal because both were broken.
	scalar := scalarSim()
	res, err := scalar.EvaluateTimingAll(traces["saturated"], []SchemeKind{SchemeDCG})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].GateViolations != 64 {
		t.Errorf("saturated trace: %d gate violations under dcg, want 64 (every cycle)", res[0].GateViolations)
	}
}

// TestParallelReplayMixedSetSplit drives the split-set route with a
// genuinely mixed set — packed-capable schemes plus a machine-mismatched
// one — placing the mismatched scheme first, in the middle and last, and
// evaluating each order twice on one simulator. Every result must land
// in its input slot and equal the per-scheme scalar reference.
func TestParallelReplayMixedSetSplit(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	tm, err := sim.CaptureBenchmark("gzip", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	other := DefaultMachine()
	other.IssueWidth = 4
	build := func(order []int) []gating.Scheme {
		makers := []func() gating.Scheme{
			func() gating.Scheme { return gating.NewDCG(DefaultMachine()) },
			func() gating.Scheme { return gating.NewDCG(other) },
			func() gating.Scheme { return gating.NewOracle(DefaultMachine()) },
		}
		schemes := make([]gating.Scheme, len(order))
		for i, m := range order {
			schemes[i] = makers[m]()
		}
		return schemes
	}
	for _, order := range [][]int{{1, 0, 2}, {0, 1, 2}, {0, 2, 1}} {
		reference, err := scalarSim().EvaluateTimingSchemes(tm, build(order))
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			res, err := sim.EvaluateTimingSchemes(tm, build(order))
			if err != nil {
				t.Fatalf("order=%v pass=%d: %v", order, pass, err)
			}
			if len(res) != len(order) {
				t.Fatalf("order=%v pass=%d: %d results, want %d", order, pass, len(res), len(order))
			}
			for i := range order {
				assertBitIdentical(t, fmt.Sprintf("order=%v/pass=%d/mixed[%d]", order, pass, i),
					reference[i], res[i])
			}
		}
	}
}

// TestPackedReplayRouting pins the automatic routing and its counters:
// eligible sets ride the packed kernel, a machine-mismatched scheme in a
// mixed set falls back to the scalar engine alone while the rest of the
// set stays packed, every result in the mixed set equals the scalar
// engine's, and the strict entry refuses what it cannot pack.
func TestPackedReplayRouting(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 10_000
	tm, err := sim.CaptureBenchmark("gzip", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []SchemeKind{SchemeNone, SchemeDCG, SchemeOracle}

	packed0 := PackedReplaySchemes()
	fallback0 := PackedReplayFallbacks()
	fused0 := usagetrace.FusedSchemes()

	if _, err := sim.EvaluateTimingAll(tm, kinds); err != nil {
		t.Fatal(err)
	}
	if got := PackedReplaySchemes() - packed0; got != uint64(len(kinds)) {
		t.Fatalf("packed-scheme counter advanced %d, want %d", got, len(kinds))
	}
	if got := usagetrace.FusedSchemes() - fused0; got != 0 {
		t.Fatalf("packed evaluation fed %d sinks through the scalar engine, want 0", got)
	}
	if got := PackedReplayFallbacks() - fallback0; got != 0 {
		t.Fatalf("eligible set recorded %d fallbacks, want 0", got)
	}

	// A scheme built for a foreign machine is ineligible, so the
	// automatic route splits the set: the eligible schemes still ride the
	// packed kernel while only the mismatched one takes the scalar engine,
	// and every result equals the scalar engine's.
	other := DefaultMachine()
	other.IssueWidth = 4
	mixed := []gating.Scheme{
		gating.NewDCG(DefaultMachine()),
		gating.NewDCG(other),
		gating.NewOracle(DefaultMachine()),
	}
	results, err := sim.EvaluateTimingSchemes(tm, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(mixed) {
		t.Fatalf("mixed evaluation returned %d results, want %d", len(results), len(mixed))
	}
	if got := PackedReplayFallbacks() - fallback0; got != 1 {
		t.Fatalf("fallback counter advanced %d, want 1 (only the mismatched scheme)", got)
	}
	if got := PackedReplaySchemes() - packed0; got != uint64(len(kinds))+2 {
		t.Fatalf("packed-scheme counter advanced %d, want %d (eligible part of the mixed set)",
			got, len(kinds)+2)
	}
	if got := usagetrace.FusedSchemes() - fused0; got != 1 {
		t.Fatalf("fallback fed %d scalar sinks, want 1", got)
	}
	reference, err := scalarSim().EvaluateTimingSchemes(tm, []gating.Scheme{
		gating.NewDCG(DefaultMachine()),
		gating.NewDCG(other),
		gating.NewOracle(DefaultMachine()),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range mixed {
		assertBitIdentical(t, fmt.Sprintf("mixed[%d]/%s", i, results[i].Scheme), reference[i], results[i])
	}

	// Strict entry: refuses PLB, a telemetry simulator, and a disabled
	// one — it must never silently hand back scalar results.
	if _, err := sim.EvaluateTimingPacked(tm, []SchemeKind{SchemePLBExt}); err == nil {
		t.Error("strict packed entry accepted PLB")
	}
	offSim := NewSimulator(DefaultMachine())
	offSim.DisablePackedReplay = true
	if _, err := offSim.EvaluateTimingPacked(tm, kinds); err == nil ||
		!strings.Contains(err.Error(), "not packed-evaluable") {
		t.Errorf("strict packed entry on a disabled simulator: err = %v", err)
	}
	if _, err := sim.EvaluateTimingPacked(&Timing{}, kinds); err == nil {
		t.Error("strict packed entry accepted a timing with no trace")
	}
}
