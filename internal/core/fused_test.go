package core

import (
	"strings"
	"testing"

	"dcg/internal/cpu"
	"dcg/internal/power"
	"dcg/internal/usagetrace"
)

// TestFusedReplayMatchesSequentialBitForBit is the fused scalar
// engine's golden test: evaluating k schemes in one fused pass must
// produce, for every scheme, exactly the Result of the sequential
// one-scheme-at-a-time direct simulations — bit for bit, not
// approximately. The packed kernel is disabled, so every scheme rides
// the scalar pass this test pins as the reference engine.
func TestFusedReplayMatchesSequentialBitForBit(t *testing.T) {
	const insts = 40_000
	kinds := []SchemeKind{SchemeNone, SchemeDCG, SchemeOracle}
	for _, bench := range []string{"gzip", "swim"} {
		sim := scalarSim()
		sim.Warmup = 20_000
		tm, err := sim.CaptureBenchmark(bench, insts)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := sim.EvaluateTimingAll(tm, kinds)
		if err != nil {
			t.Fatal(err)
		}
		if len(fused) != len(kinds) {
			t.Fatalf("%s: %d results for %d schemes", bench, len(fused), len(kinds))
		}
		for i, kind := range kinds {
			direct, err := sim.RunBenchmark(bench, kind, insts)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, bench+"/fused/"+kind.String(), direct, fused[i])
		}
	}
}

// TestFusedReplayMatchesSequentialDCGSubsets extends the fused golden
// test across all 16 DCGOptions ablation subsets, fused into a single
// scalar pass over one capture and held to one direct run each.
func TestFusedReplayMatchesSequentialDCGSubsets(t *testing.T) {
	const insts = 30_000
	sim := scalarSim()
	sim.Warmup = 20_000
	tm, err := sim.CaptureBenchmark("gcc", insts)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := sim.EvaluateTimingSchemes(tm, allDCGSubsets())
	if err != nil {
		t.Fatal(err)
	}
	for i, direct := range directDCGSubsets(t, sim, "gcc", insts) {
		assertBitIdentical(t, "fused/"+direct.Scheme, direct, fused[i])
	}
}

// TestFusedReplayRejectsPLB: schemes that throttle timing must be
// rejected by the fused path, alone or riding with neutral schemes.
func TestFusedReplayRejectsPLB(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 10_000
	tm, err := sim.CaptureBenchmark("gzip", 10_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []SchemeKind{SchemePLBOrig, SchemePLBExt} {
		if _, err := sim.EvaluateTimingAll(tm, []SchemeKind{kind}); err == nil {
			t.Errorf("fused replay accepted %v, which throttles timing", kind)
		}
		// Riding along with neutral schemes must not smuggle it through.
		if _, err := sim.EvaluateTimingAll(tm, []SchemeKind{SchemeNone, kind, SchemeDCG}); err == nil {
			t.Errorf("fused replay accepted %v inside a neutral batch", kind)
		}
	}
	if _, err := sim.EvaluateTimingAll(&Timing{}, []SchemeKind{SchemeDCG}); err == nil {
		t.Error("fused replay accepted a timing with no trace")
	}
}

// TestFusedReplayDecodesOnce is the acceptance-criterion counter test: a
// fused evaluation of three schemes over one captured trace performs
// exactly one columnar decode, and every later evaluation of the same
// Timing — fused or single — reuses it. The packed kernel is disabled:
// this test pins the scalar fused engine's counters (FusedSchemes only
// advances when ReplayAll actually feeds sinks).
func TestFusedReplayDecodesOnce(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 10_000
	sim.DisablePackedReplay = true
	tm, err := sim.CaptureBenchmark("mcf", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []SchemeKind{SchemeNone, SchemeDCG, SchemeOracle}

	decodes0 := usagetrace.Decodes()
	reuses0 := usagetrace.DecodeReuses()
	fused0 := usagetrace.FusedSchemes()

	if _, err := sim.EvaluateTimingAll(tm, kinds); err != nil {
		t.Fatal(err)
	}
	if got := usagetrace.Decodes() - decodes0; got != 1 {
		t.Fatalf("fused evaluation of %d schemes performed %d decodes, want exactly 1", len(kinds), got)
	}
	if got := usagetrace.DecodeReuses() - reuses0; got != 0 {
		t.Fatalf("first fused evaluation reported %d decode reuses, want 0", got)
	}
	if got := usagetrace.FusedSchemes() - fused0; got != uint64(len(kinds)) {
		t.Fatalf("fused-scheme counter advanced %d, want %d", got, len(kinds))
	}

	// A second fused pass and a single-scheme evaluation of the same
	// Timing must reuse the memoized decode, not decode again.
	if _, err := sim.EvaluateTimingAll(tm, kinds); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.EvaluateTimingAll(tm, []SchemeKind{SchemeDCG}); err != nil {
		t.Fatal(err)
	}
	if got := usagetrace.Decodes() - decodes0; got != 1 {
		t.Fatalf("repeat evaluations re-decoded the trace: %d decodes, want 1", got)
	}
	if got := usagetrace.DecodeReuses() - reuses0; got != 2 {
		t.Fatalf("repeat evaluations reported %d decode reuses, want 2", got)
	}

	// The decode must describe exactly the captured run.
	d, err := tm.Trace.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if d.Cycles() != tm.CPUStats.Cycles {
		t.Errorf("decoded %d cycles, timing ran %d", d.Cycles(), tm.CPUStats.Cycles)
	}
	if d.Name() != "mcf" || d.BackLatchStages() != tm.Trace.BackLatchStages() {
		t.Errorf("decode header mismatch: name=%q stages=%d", d.Name(), d.BackLatchStages())
	}
}

// countingTelemetry counts every callback a RunTelemetry receives.
type countingTelemetry struct{ cycles, gates int }

func (c *countingTelemetry) OnCycle(*cpu.Usage)              { c.cycles++ }
func (c *countingTelemetry) OnGates(uint64, power.GateState) { c.gates++ }

// TestReplayRefusesTelemetry: telemetry observes a live pass, so a
// replay evaluation on a simulator carrying it must fail loudly on every
// replay entry — and feed the recorder nothing — rather than hand back
// a result the recorder never saw.
func TestReplayRefusesTelemetry(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 10_000
	tm, err := sim.CaptureBenchmark("gzip", 10_000)
	if err != nil {
		t.Fatal(err)
	}
	rec := &countingTelemetry{}
	sim.Telemetry = rec
	if _, err := sim.EvaluateTimingAll(tm, []SchemeKind{SchemeDCG}); err == nil ||
		!strings.Contains(err.Error(), "telemetry requires a live pass") {
		t.Errorf("EvaluateTimingAll with telemetry: err = %v, want the live-pass refusal", err)
	}
	if _, err := sim.EvaluateTimingSchemes(tm, allDCGSubsets()); err == nil {
		t.Error("EvaluateTimingSchemes accepted a simulator carrying telemetry")
	}
	if _, err := sim.EvaluateTimingPacked(tm, []SchemeKind{SchemeDCG}); err == nil {
		t.Error("EvaluateTimingPacked accepted a simulator carrying telemetry")
	}
	if rec.cycles != 0 || rec.gates != 0 {
		t.Errorf("refused replays fed the recorder %d cycles and %d gate decisions, want none",
			rec.cycles, rec.gates)
	}
}
