// Package dcg's root benchmark harness regenerates every table and figure
// of the paper's evaluation as a testing.B benchmark (one per exhibit),
// reporting the headline quantities as custom metrics, plus throughput
// micro-benchmarks for the substrate components.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one figure's numbers at higher fidelity:
//
//	go test -bench=Fig10 -benchtime=1x
//	go run ./cmd/dcgrepro -n 500000   # full-resolution tables
package dcg_test

import (
	"bytes"
	"context"
	"testing"

	"dcg/internal/config"
	"dcg/internal/core"
	"dcg/internal/cpu"
	"dcg/internal/experiments"
	"dcg/internal/mem"
	"dcg/internal/simrun"
	"dcg/internal/trace"
	"dcg/internal/usagetrace"
	"dcg/internal/workload"
)

// benchInsts keeps each exhibit's regeneration fast enough for -bench=.
// while preserving the paper's shape; cmd/dcgrepro runs the full version.
const benchInsts = 60_000

// benchSubset is a representative 4-benchmark slice (2 int + 2 fp,
// including the mcf/lucas stall outlier class).
var benchSubset = []string{"gzip", "mcf", "swim", "mesa"}

func newRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.Options{
		Insts:      benchInsts,
		Warmup:     50_000,
		Benchmarks: benchSubset,
	})
}

// BenchmarkTable1Baseline measures a baseline (no gating) run of the
// Table 1 machine and reports its IPC — the substrate under every figure.
func BenchmarkTable1Baseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := core.NewSimulator(core.DefaultMachine())
		res, err := sim.RunBenchmark("gcc", core.SchemeNone, benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IPC, "IPC")
		b.ReportMetric(float64(res.Cycles), "cycles")
	}
}

// BenchmarkSec44IntALUSweep regenerates the section 4.4 sweep (8/6/4
// integer ALUs) and reports the relative performance of the 6- and 4-ALU
// machines (paper: 98.8% and 92.7% worst-case).
func BenchmarkSec44IntALUSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := newRunner().Sec44ALUSweep()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*s.Rows[1].RelPerf, "relperf6%")
		b.ReportMetric(100*s.Rows[2].RelPerf, "relperf4%")
	}
}

// reportComparison publishes each series' suite means as metrics.
func reportComparison(b *testing.B, c *experiments.Comparison) {
	b.Helper()
	for _, s := range c.Series {
		b.ReportMetric(100*s.IntMean, s.Scheme+"-int%")
		b.ReportMetric(100*s.FPMean, s.Scheme+"-fp%")
	}
}

// BenchmarkFig10TotalPower regenerates Figure 10: total power savings of
// DCG vs PLB-orig vs PLB-ext (paper: 20.9/18.8, 6.3/4.9, 11.0/8.7).
func BenchmarkFig10TotalPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := newRunner().Fig10()
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c)
	}
}

// BenchmarkFig11PowerDelay regenerates Figure 11: power-delay savings
// (paper: DCG equals its power saving; PLB-orig 3.5/2.0; PLB-ext 8.3/5.9).
func BenchmarkFig11PowerDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := newRunner().Fig11()
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c)
	}
}

// BenchmarkFig12IntUnits regenerates Figure 12: integer execution unit
// power savings (paper: DCG ~72%, PLB-ext ~29.6%).
func BenchmarkFig12IntUnits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := newRunner().Fig12()
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c)
	}
}

// BenchmarkFig13FPUnits regenerates Figure 13: FP unit power savings
// (paper: DCG 77.2% on fp / ~100% on int; PLB-ext 23.0%).
func BenchmarkFig13FPUnits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := newRunner().Fig13()
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c)
	}
}

// BenchmarkFig14Latches regenerates Figure 14: pipeline latch power
// savings including DCG's control overhead (paper: DCG 41.6%, PLB-ext
// 17.6%).
func BenchmarkFig14Latches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := newRunner().Fig14()
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c)
	}
}

// BenchmarkFig15DCache regenerates Figure 15: D-cache power savings
// (paper: DCG 22.6%, PLB-ext 8.1%).
func BenchmarkFig15DCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := newRunner().Fig15()
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c)
	}
}

// BenchmarkFig16ResultBus regenerates Figure 16: result bus driver power
// savings (paper: DCG 59.6%, PLB-ext 32.2%).
func BenchmarkFig16ResultBus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := newRunner().Fig16()
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c)
	}
}

// BenchmarkFig17DeepPipeline regenerates Figure 17: DCG savings on the
// 8-stage vs 20-stage pipeline (paper: 19.9% vs 24.5%).
func BenchmarkFig17DeepPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := newRunner().Fig17()
		if err != nil {
			b.Fatal(err)
		}
		s8, s20 := c.Series[0], c.Series[1]
		b.ReportMetric(100*(s8.IntMean+s8.FPMean)/2, "8stage%")
		b.ReportMetric(100*(s20.IntMean+s20.FPMean)/2, "20stage%")
	}
}

// BenchmarkUtilization regenerates the section 5.2-5.5 baseline structure
// utilisations that the paper's expected-savings arithmetic builds on.
func BenchmarkUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u, err := newRunner().Utilization()
		if err != nil {
			b.Fatal(err)
		}
		var intU, latch, ports, bus float64
		for _, row := range u.Rows {
			intU += row.Util.IntUnits
			latch += row.Util.Latches
			ports += row.Util.DPorts
			bus += row.Util.ResultBus
		}
		n := float64(len(u.Rows))
		b.ReportMetric(100*intU/n, "int-util%")
		b.ReportMetric(100*latch/n, "latch-util%")
		b.ReportMetric(100*ports/n, "dport-util%")
		b.ReportMetric(100*bus/n, "bus-util%")
	}
}

// BenchmarkAblationDCGContribution regenerates the mechanism-contribution
// ablation (units -> +latches -> +dcache -> +bus) and reports each step's
// cumulative saving.
func BenchmarkAblationDCGContribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := newRunner().DCGContribution()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*a.Rows[0].Saving, "units%")
		b.ReportMetric(100*a.Rows[1].Saving, "+latch%")
		b.ReportMetric(100*a.Rows[2].Saving, "+dcache%")
		b.ReportMetric(100*a.Rows[3].Saving, "full%")
	}
}

// BenchmarkAblationSelectionPolicy regenerates the section 3.1 policy
// ablation and reports clock-gate control toggles per cycle.
func BenchmarkAblationSelectionPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := newRunner().SelectionPolicy()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*a.Rows[0].Saving, "seq%")
		b.ReportMetric(100*a.Rows[1].Saving, "rr%")
	}
}

// BenchmarkAblationLeakage regenerates the leakage-erosion sweep.
func BenchmarkAblationLeakage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := newRunner().Leakage()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*a.Rows[0].Saving, "lk0%")
		b.ReportMetric(100*a.Rows[len(a.Rows)-1].Saving, "lk40%")
	}
}

// ---- Substrate micro-benchmarks ----

// BenchmarkSimulatorThroughput measures raw simulation speed in
// instructions per second of host time.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof, _ := workload.ByName("gcc")
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		gen, err := workload.NewGenerator(prof)
		if err != nil {
			b.Fatal(err)
		}
		c, err := cpu.New(config.Default(), trace.NewLimitSource(gen, 100_000))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(0); err != nil {
			b.Fatal(err)
		}
		total += 100_000
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkWorkloadGenerator measures stream generation throughput.
func BenchmarkWorkloadGenerator(b *testing.B) {
	prof, _ := workload.ByName("swim")
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next()
	}
}

// BenchmarkCacheAccess measures the D-cache model's access latency.
func BenchmarkCacheAccess(b *testing.B) {
	c, err := mem.NewCache(config.Default().DL1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64)&0xFFFFF, i&7 == 0)
	}
}

// BenchmarkDCGRun measures a full DCG-instrumented simulation (core +
// power accounting + gating controller), the configuration every figure
// uses.
func BenchmarkDCGRun(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunBenchmark("swim", core.SchemeDCG, benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Saving, "save%")
	}
}

// ---- Capture-once / replay-many ----

// BenchmarkCaptureTiming measures the capture side of the split: one core
// timing simulation recording its per-cycle usage trace. The trace size
// is reported so the timing cache's residency cost is visible.
func BenchmarkCaptureTiming(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm, err := sim.CaptureBenchmark("swim", benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tm.Trace.SizeBytes()), "trace-B")
		b.ReportMetric(float64(tm.Trace.Cycles()), "cycles")
	}
}

// BenchmarkReplayEvaluate measures the replay side in the shape a
// single-scheme request takes: the DCG scheme evaluated against a
// captured trace, with no core timing work. Compare per-op time against
// BenchmarkDCGRun (the same evaluation done the direct way) for the
// capture-once/replay-many speedup.
func BenchmarkReplayEvaluate(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	tm, err := sim.CaptureBenchmark("swim", benchInsts)
	if err != nil {
		b.Fatal(err)
	}
	kinds := []core.SchemeKind{core.SchemeDCG}
	warmReplay(b, sim, tm, kinds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sim.EvaluateTimingAll(tm, kinds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*results[0].Saving, "save%")
	}
}

// warmReplay runs one evaluation outside the timer: it performs the
// trace's one-time memoized decode, so the timed ops measure steady-state
// replay alone.
func warmReplay(b *testing.B, sim *core.Simulator, tm *core.Timing, kinds []core.SchemeKind) {
	b.Helper()
	if _, err := sim.EvaluateTimingAll(tm, kinds); err != nil {
		b.Fatal(err)
	}
}

// replayKinds is the full timing-neutral scheme set of the paper's
// schemes, used by the fused-vs-packed benchmark pair.
var replayKinds = []core.SchemeKind{core.SchemeNone, core.SchemeDCG, core.SchemeOracle}

// BenchmarkReplayFusedN measures the fused scalar engine: all k schemes
// evaluated in one pass over the memoized columnar decode (one decode
// per capture, ever — see docs/PERFORMANCE.md). Results are
// bit-identical to direct runs
// (TestFusedReplayMatchesSequentialBitForBit). The packed kernel is
// disabled so this measures the scalar engine specifically;
// BenchmarkReplayPackedN is the packed counterpart.
func BenchmarkReplayFusedN(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	sim.DisablePackedReplay = true
	tm, err := sim.CaptureBenchmark("swim", benchInsts)
	if err != nil {
		b.Fatal(err)
	}
	warmReplay(b, sim, tm, replayKinds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sim.EvaluateTimingAll(tm, replayKinds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*results[1].Saving, "dcg-save%")
	}
}

// BenchmarkReplayPackedN measures the bit-packed columnar kernel on the
// same work as BenchmarkReplayFusedN: all k timing-neutral schemes
// derived word-at-a-time from the decode-time bit-planes and schedule
// aggregates, no per-cycle callbacks at all. Results are bit-identical
// to the scalar engine (TestPackedReplayMatchesScalarBitForBit).
func BenchmarkReplayPackedN(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	tm, err := sim.CaptureBenchmark("swim", benchInsts)
	if err != nil {
		b.Fatal(err)
	}
	warmReplay(b, sim, tm, replayKinds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sim.EvaluateTimingPacked(tm, replayKinds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*results[1].Saving, "dcg-save%")
	}
}

// loadInsts is dcgserve's default request size (-default-insts), so the
// trace-load benchmark measures the traces the service actually stores.
const loadInsts = 300_000

// BenchmarkLoadTrace measures the store-shaped trace load on a real
// capture at dcgserve's default request size — gzip on the base machine,
// 300 000 instructions after the default warm-up — once usage-only and
// once with the latchvalue channel. One op is ReadTrace of the
// gzip-encoded trace (inflate, then the one-walk validate and decode)
// followed by the replay's Decode, which the load has made a reuse.
// Capture and encode run outside the timer. decoded-B/cycle is the
// retained size of the decode (Decoded.SizeBytes) per trace cycle.
func BenchmarkLoadTrace(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	for _, tc := range []struct {
		name  string
		extra []string
	}{
		{"usage", nil},
		{"latchvalue", []string{usagetrace.ChannelLatchValue}},
	} {
		tm, err := sim.CaptureBenchmark("gzip", loadInsts, tc.extra...)
		if err != nil {
			b.Fatal(err)
		}
		var enc bytes.Buffer
		if err := tm.Trace.EncodeGzip(&enc); err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			var d *usagetrace.Decoded
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, err := usagetrace.ReadTrace(bytes.NewReader(enc.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				if d, err = tr.Decode(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(d.SizeBytes())/float64(d.Cycles()), "decoded-B/cycle")
		})
	}
}

// ---- Channelized traces (format v2) ----

// BenchmarkCaptureTimingChannels is BenchmarkCaptureTiming with the
// latchvalue channel recorded alongside usage — the capture a sweep
// runs when its scheme set includes the value-dependent family. The
// reported trace-B shows the channel's size cost over the usage-only
// capture.
func BenchmarkCaptureTimingChannels(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm, err := sim.CaptureBenchmark("swim", benchInsts, usagetrace.ChannelLatchValue)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tm.Trace.SizeBytes()), "trace-B")
	}
}

// BenchmarkReplayPackedNChannelized runs the packed kernel's scheme set
// over a trace that also carries the latchvalue channel: the extra
// channel must not tax the packed path (it is decoded once and ignored
// by the bit-plane kernels), so per-op time should match
// BenchmarkReplayPackedN.
func BenchmarkReplayPackedNChannelized(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	tm, err := sim.CaptureBenchmark("swim", benchInsts, usagetrace.ChannelLatchValue)
	if err != nil {
		b.Fatal(err)
	}
	warmReplay(b, sim, tm, replayKinds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sim.EvaluateTimingPacked(tm, replayKinds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*results[1].Saving, "dcg-save%")
	}
}

// valueKinds is the value-dependent family: both replay `scalar` (the
// per-lane comparator state needs the per-cycle stream), so this set
// exercises the fused scalar engine even with packed replay enabled.
var valueKinds = []core.SchemeKind{core.SchemeDDCG, core.SchemeDCGDDCG}

// BenchmarkReplayScalarDDCG measures the value-dependent replay path:
// the ddcg family evaluated in one fused pass over a latchvalue-carrying
// capture. This is the cost model for the `families` comparison's second
// timing group.
func BenchmarkReplayScalarDDCG(b *testing.B) {
	sim := core.NewSimulator(core.DefaultMachine())
	tm, err := sim.CaptureBenchmark("swim", benchInsts, usagetrace.ChannelLatchValue)
	if err != nil {
		b.Fatal(err)
	}
	warmReplay(b, sim, tm, valueKinds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sim.EvaluateTimingAll(tm, valueKinds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*results[0].Saving, "ddcg-save%")
	}
}

// BenchmarkExecReplayUntraced drives the executor's replay-serving path
// with tracing disabled — the configuration every deployment runs until
// a tracer is attached. The result memo holds one entry per shard, and
// the two keys (gcc under none and oracle) share a shard, so they evict
// each other: every op misses the memo and is answered by replaying the
// shared timing capture through Exec.Do's full span-instrumented path.
// The benchmark fails if any timed op is a memo hit instead. CI gates
// its allocs/op against the committed baseline: span instrumentation
// must stay free when no span is in the context.
func BenchmarkExecReplayUntraced(b *testing.B) {
	exec := simrun.NewExec(1, 0)
	ctx := context.Background()
	warm := simrun.Key{Bench: "gcc", Scheme: core.SchemeDCG, Insts: benchInsts}
	if _, _, err := exec.Do(ctx, warm); err != nil {
		b.Fatal(err)
	}
	keys := [2]simrun.Key{
		{Bench: "gcc", Scheme: core.SchemeNone, Insts: benchInsts},
		{Bench: "gcc", Scheme: core.SchemeOracle, Insts: benchInsts},
	}
	// One replay of each key outside the timer performs the one-time
	// columnar decode and each scheme's first replay, so the timed ops
	// measure steady-state replay cost only.
	for _, k := range keys {
		if _, _, err := exec.Do(ctx, k); err != nil {
			b.Fatal(err)
		}
	}
	hits := exec.ResultStats().Hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exec.Do(ctx, keys[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if exec.ResultStats().Hits != hits {
		b.Fatal("a timed op was a result-memo hit: the two keys no longer share a memo shard")
	}
}

// BenchmarkExecColdPair serves the Figure 10 trio — dcg (a capture) and
// plb-orig and plb-ext (full runs) — for one benchmark and machine at
// dcgserve's default request size on a fresh executor, as a cold server
// does. The three share one functional warm-up through the executor's
// snapshot cache; warmups/op reports how many ran (1 when the sharing
// works, 3 without it).
func BenchmarkExecColdPair(b *testing.B) {
	ctx := context.Background()
	schemes := []core.SchemeKind{core.SchemeDCG, core.SchemePLBOrig, core.SchemePLBExt}
	var warmups uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		exec := simrun.NewExec(0, 0)
		for _, s := range schemes {
			if _, _, err := exec.Do(ctx, simrun.Key{Bench: "gzip", Scheme: s, Insts: loadInsts}); err != nil {
				b.Fatal(err)
			}
		}
		warmups += exec.WarmStats().Misses
	}
	b.ReportMetric(float64(warmups)/float64(b.N), "warmups/op")
}
