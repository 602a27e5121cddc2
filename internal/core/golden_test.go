package core

import (
	"bytes"
	"context"
	"testing"

	"dcg/internal/gating"
	"dcg/internal/power"
	"dcg/internal/usagetrace"
)

// assertBitIdentical requires every power metric of the two results to be
// EXACTLY equal — not approximately. The replay feeds the accountant the
// same usage vectors and events in the same order as the live core, so
// every float operation happens in the same sequence and the outputs are
// bit-for-bit identical; any tolerance here would hide a divergence.
func assertBitIdentical(t *testing.T, label string, direct, replayed *Result) {
	t.Helper()
	if direct.Cycles != replayed.Cycles {
		t.Errorf("%s: cycles %d != %d", label, replayed.Cycles, direct.Cycles)
	}
	if direct.Committed != replayed.Committed {
		t.Errorf("%s: committed %d != %d", label, replayed.Committed, direct.Committed)
	}
	if direct.IPC != replayed.IPC {
		t.Errorf("%s: IPC %v != %v", label, replayed.IPC, direct.IPC)
	}
	if direct.AvgPower != replayed.AvgPower {
		t.Errorf("%s: avg power %v != %v", label, replayed.AvgPower, direct.AvgPower)
	}
	if direct.BaselinePower != replayed.BaselinePower {
		t.Errorf("%s: baseline power %v != %v", label, replayed.BaselinePower, direct.BaselinePower)
	}
	if direct.Saving != replayed.Saving {
		t.Errorf("%s: saving %v != %v", label, replayed.Saving, direct.Saving)
	}
	for c := power.Component(0); c < power.NumComponents; c++ {
		if direct.Energy[c] != replayed.Energy[c] {
			t.Errorf("%s: energy[%v] %v != %v", label, c, replayed.Energy[c], direct.Energy[c])
		}
	}
	if direct.GateViolations != replayed.GateViolations {
		t.Errorf("%s: gate violations %d != %d", label, replayed.GateViolations, direct.GateViolations)
	}
	if direct.LeadViolations != replayed.LeadViolations {
		t.Errorf("%s: lead violations %d != %d", label, replayed.LeadViolations, direct.LeadViolations)
	}
	groups := [][]power.Component{
		{power.CompIntALU, power.CompIntMult},
		{power.CompFPALU, power.CompFPMult},
		{power.CompResultBus},
		{power.CompDCacheDecoder},
	}
	for _, g := range groups {
		if d, r := direct.ComponentSaving(g...), replayed.ComponentSaving(g...); d != r {
			t.Errorf("%s: component saving %v: %v != %v", label, g, r, d)
		}
	}
	if d, r := direct.LatchSaving(), replayed.LatchSaving(); d != r {
		t.Errorf("%s: latch saving %v != %v", label, r, d)
	}
	if d, r := direct.DCacheSaving(), replayed.DCacheSaving(); d != r {
		t.Errorf("%s: d-cache saving %v != %v", label, r, d)
	}
}

// replayRoutes are the two replay engines a golden test must hold to
// the direct run: the default route (the packed kernel for every
// packed-capable scheme) and the fused scalar engine.
func replayRoutes() map[string]*Simulator {
	return map[string]*Simulator{
		"default": NewSimulator(DefaultMachine()),
		"scalar":  scalarSim(),
	}
}

// TestReplayMatchesDirectRunBitForBit is the golden equivalence test: for
// every timing-neutral scheme, evaluating a captured trace one scheme at
// a time — the shape a single-scheme request takes — must produce the
// same Result a full simulation does, bit for bit, on both replay routes.
func TestReplayMatchesDirectRunBitForBit(t *testing.T) {
	const insts = 40_000
	for _, bench := range []string{"gzip", "swim"} {
		sim := NewSimulator(DefaultMachine())
		sim.Warmup = 20_000
		tm, err := sim.CaptureBenchmark(bench, insts)
		if err != nil {
			t.Fatal(err)
		}
		if tm.Trace.Cycles() != tm.CPUStats.Cycles {
			t.Fatalf("%s: trace holds %d cycles, timing ran %d", bench, tm.Trace.Cycles(), tm.CPUStats.Cycles)
		}
		for _, kind := range []SchemeKind{SchemeNone, SchemeDCG, SchemeOracle} {
			direct, err := sim.RunBenchmark(bench, kind, insts)
			if err != nil {
				t.Fatal(err)
			}
			for route, rsim := range replayRoutes() {
				replayed, err := rsim.EvaluateTimingAll(tm, []SchemeKind{kind})
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, bench+"/"+kind.String()+"/"+route, direct, replayed[0])
			}
		}
	}
}

// TestReplayMatchesDirectRunAllDCGSubsets extends the golden test across
// every DCGOptions ablation subset, each replayed on its own from one
// capture on both replay routes.
func TestReplayMatchesDirectRunAllDCGSubsets(t *testing.T) {
	const insts = 30_000
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 20_000
	tm, err := sim.CaptureBenchmark("gcc", insts)
	if err != nil {
		t.Fatal(err)
	}
	direct := directDCGSubsets(t, sim, "gcc", insts)
	for route, rsim := range replayRoutes() {
		for i, scheme := range allDCGSubsets() {
			replayed, err := rsim.EvaluateTimingSchemes(tm, []gating.Scheme{scheme})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, direct[i].Scheme+"/"+route, direct[i], replayed[0])
		}
	}
}

// directDCGSubsets runs the benchmark directly once per DCG ablation
// subset, in allDCGSubsets order: the references the replay engines are
// held to.
func directDCGSubsets(t *testing.T, sim *Simulator, bench string, insts uint64) []*Result {
	t.Helper()
	var results []*Result
	for _, scheme := range allDCGSubsets() {
		res, err := sim.RunBenchmarkScheme(bench, scheme, insts)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	return results
}

// TestRunAndCaptureMatchesPlainRun: the capturing run's own Result (the
// accountant riding alongside the trace writer) equals an uninstrumented
// run — capture must not perturb the simulation.
func TestRunAndCaptureMatchesPlainRun(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 20_000
	capRes, tm, err := sim.RunAndCapture(context.Background(), "mcf", SchemeDCG, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.RunBenchmark("mcf", SchemeDCG, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "capture-run", direct, capRes)
	if tm.Benchmark != "mcf" || tm.Trace == nil {
		t.Fatalf("timing incomplete: %+v", tm)
	}
}

// TestTimingSurvivesSerialisation: a trace written to bytes and reloaded
// evaluates identically — the on-disk format loses nothing.
func TestTimingSurvivesSerialisation(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 10_000
	tm, err := sim.CaptureBenchmark("gzip", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tm.Trace.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := usagetrace.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tm2 := *tm
	tm2.Trace = reloaded
	a, err := sim.EvaluateTimingAll(tm, []SchemeKind{SchemeDCG})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.EvaluateTimingAll(&tm2, []SchemeKind{SchemeDCG})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "serialised", a[0], b[0])
}

func TestCaptureAndReplayRejectPLB(t *testing.T) {
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 10_000
	if _, _, err := sim.RunAndCapture(context.Background(), "gzip", SchemePLBExt, 10_000); err == nil {
		t.Error("capture accepted PLB, which throttles timing")
	}
	tm, err := sim.CaptureBenchmark("gzip", 10_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []SchemeKind{SchemePLBOrig, SchemePLBExt} {
		if _, err := sim.EvaluateTimingAll(tm, []SchemeKind{kind}); err == nil {
			t.Errorf("replay accepted %v, which throttles timing", kind)
		}
	}
	if _, err := sim.EvaluateTimingAll(&Timing{}, []SchemeKind{SchemeDCG}); err == nil {
		t.Error("replay accepted a timing with no trace")
	}
}

func TestTimingNeutrality(t *testing.T) {
	want := map[SchemeKind]bool{
		SchemeNone: true, SchemeDCG: true, SchemeOracle: true,
		SchemePLBOrig: false, SchemePLBExt: false,
	}
	for k, neutral := range want {
		if TimingNeutral(k) != neutral {
			t.Errorf("TimingNeutral(%v) = %v, want %v", k, !neutral, neutral)
		}
	}
}

// TestOracleSchemeWired: the headroom scheme is a first-class SchemeKind —
// parseable, listed, and saving strictly more than DCG (it gates a
// superset of structures).
func TestOracleSchemeWired(t *testing.T) {
	k, err := ParseScheme("oracle")
	if err != nil || k != SchemeOracle {
		t.Fatalf("ParseScheme(oracle) = %v, %v", k, err)
	}
	found := false
	for _, s := range AllSchemes() {
		if s == SchemeOracle {
			found = true
		}
	}
	if !found {
		t.Fatal("AllSchemes omits oracle")
	}
	sim := NewSimulator(DefaultMachine())
	sim.Warmup = 20_000
	tm, err := sim.CaptureBenchmark("gcc", 30_000)
	if err != nil {
		t.Fatal(err)
	}
	results, err := sim.EvaluateTimingAll(tm, []SchemeKind{SchemeDCG, SchemeOracle})
	if err != nil {
		t.Fatal(err)
	}
	dcg, oracle := results[0], results[1]
	if oracle.Saving <= dcg.Saving {
		t.Errorf("oracle saving %.3f not above DCG %.3f", oracle.Saving, dcg.Saving)
	}
	if oracle.GateViolations != 0 {
		t.Errorf("oracle run has %d gate violations", oracle.GateViolations)
	}
}
