// Command servebench is the repository's serving benchmark. It drives the
// real dcgserve handler (server.New(cfg).Handler() on a loopback
// listener) from one process with a closed loop of clients, checks every
// answer against the committed expected results, and prints its metrics
// as the last line of standard output:
//
//	bash servebench/run.sh --workload cold_capture --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced slices of the measured phase and reports
// the per-layer metrics. README.md lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"dcg/internal/obs"
)

// clients is the closed loop's width: callers of a simulation service
// wait for each answer before sending the next, and the reference machine
// has two cores.
const clients = 2

// A run sets its workload up at least minSetups times and keeps going,
// up to maxSetups, until setupBudget has been spent; setup_s is the
// median. Cheap set-ups (cold_capture's takes about a millisecond) are
// repeated hundreds of times, so scheduling and GC noise averages out.
const (
	minSetups   = 3
	maxSetups   = 1000
	setupBudget = 2 * time.Second
)

// traceSlices is how many untraced and traced slices a traced run
// alternates. Each slice measures a quarter of --seconds, so
// cold_capture and warm_replay, whose whole rounds take 13-22 s, measure
// one round per slice and a traced run stays well inside three minutes.
const traceSlices = 2

// metric is one named, unit-bearing measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("servebench", flag.ContinueOnError)
	root := fl.String("root", ".", "repository checkout to run in")
	name := fl.String("workload", "", "cold_capture or warm_replay")
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 30, "measured seconds (whole rounds are completed)")
	traced := fl.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	gen := fl.Bool("gen-expected", false, "regenerate servebench/expected.json by direct simulation and exit")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *gen {
		return generateExpected(context.Background(), filepath.Join(*root, "servebench", "expected.json"), runtime.GOMAXPROCS(0))
	}
	w, ok := newMix(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(filepath.Join(*root, ".bench_build"), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "servebench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	defer w.close()
	e := &env{root: *root, work: work, seed: *seed, clients: min(clients, runtime.NumCPU())}
	d := time.Duration(*seconds * float64(time.Second))
	exp, err := loadExpected(filepath.Join(*root, "servebench", "expected.json"))
	if err != nil {
		return err
	}
	w.plan(e, exp)

	var setups []float64
	var spent time.Duration
	for len(setups) < maxSetups && (len(setups) < minSetups || spent < setupBudget) {
		if len(setups) > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.setup(e); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
		if *traced == 1 {
			break // setup_s is not reported by the traced run
		}
	}

	rec := record{Provenance: provenance(*name, *seed, e.clients)}
	rec.Provenance["seconds"] = fmt.Sprint(*seconds)
	rec.Provenance["trace"] = fmt.Sprint(*traced)
	var metrics []metric
	var phases []*phase
	if *traced == 0 {
		p, err := w.measure(e, d, nil)
		if err != nil {
			return err
		}
		metrics = endToEnd(p, median(setups))
		phases = append(phases, p)
		rec.Warnings = append(rec.Warnings, w.drift(p)...)
	} else {
		// Untraced and traced slices alternate, so the tracing overhead
		// is not skewed by whichever phase runs first on a cold heap.
		untraced, tp := &phase{}, &phase{}
		tracer := obs.NewTracer(tracerCapacity)
		for i := 0; i < traceSlices; i++ {
			p, err := w.measure(e, d/(2*traceSlices), nil)
			if err != nil {
				return err
			}
			untraced.merge(p)
			if p, err = w.measure(e, d/(2*traceSlices), tracer); err != nil {
				return err
			}
			tp.merge(p)
		}
		phases = append(phases, untraced, tp)
		pr, err := runProbes(w.probeKeys())
		if err != nil {
			return err
		}
		spans := tracer.Spans(obs.SpanFilter{})
		if len(spans) >= tracerCapacity {
			rec.Warnings = append(rec.Warnings, "span ring full: the oldest traced requests were dropped")
		}
		st := reduceSpans(spans)
		metrics = layerMetrics(untraced, tp, st, pr)
		group, share := st.dominantGroup()
		rec.DominantLayer = fmt.Sprintf("%s (%.0f%% of traced self time)", group, 100*share)
		if group != w.dominant() {
			rec.Warnings = append(rec.Warnings, fmt.Sprintf("dominant layer is %s, not %s", group, w.dominant()))
		}
		for _, m := range metrics {
			if m.name == "tracing.overhead_ms_p50" {
				rec.TracingOverheadMsP50 = m.value
			}
		}
		for _, d := range w.drift(tp) {
			rec.Warnings = append(rec.Warnings, "traced phase: "+d)
		}
		for _, d := range w.drift(untraced) {
			rec.Warnings = append(rec.Warnings, "untraced phase: "+d)
		}
	}

	attempted, failed := 0, 0
	for _, p := range phases {
		for _, s := range p.samples {
			attempted++
			if s.problem != "" {
				if failed < 5 {
					fmt.Fprintln(os.Stderr, "wrong answer:", s.problem)
				}
				failed++
			}
		}
	}
	for _, w := range rec.Warnings {
		fmt.Fprintln(os.Stderr, "warning:", w)
	}
	if attempted == 0 {
		return errors.New("no request completed")
	}
	if err := json.NewEncoder(stdout).Encode(rec); err != nil {
		return err
	}
	out := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]value, len(metrics))}
	for _, m := range metrics {
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	return json.NewEncoder(stdout).Encode(out)
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is printed just before the result: where and how it was measured.
type record struct {
	Provenance           map[string]string `json:"provenance"`
	DominantLayer        string            `json:"dominant_layer,omitempty"`
	TracingOverheadMsP50 float64           `json:"tracing_overhead_ms_p50,omitempty"`
	Warnings             []string          `json:"warnings,omitempty"`
}

// endToEnd derives the untraced metrics a user of the service sees.
func endToEnd(p *phase, setup float64) []metric {
	n := float64(len(p.samples))
	ok := 0.0
	for _, s := range p.samples {
		if s.problem == "" {
			ok++
		}
	}
	wall := p.meter.wall.Seconds()
	return []metric{
		{"setup_s", "s", setup},
		{"latency_p50_ms", "ms", percentileMs(p.samples, 0.5)},
		{"latency_p90_ms", "ms", percentileMs(p.samples, 0.9)},
		{"throughput_rps", "1/s", n / wall},
		{"sim_insts_per_s", "inst/s", ok * insts / wall},
		{"cpu_ms_per_req", "ms", float64(p.meter.cpu.Nanoseconds()) / 1e6 / n},
		{"alloc_mb_per_req", "MB", float64(p.meter.allocated) / 1e6 / n},
		{"heap_live_mb", "MB", float64(p.heap) / 1e6},
		{"success_rate", "ratio", ok / n},
	}
}

// percentileMs is the nearest-rank q-quantile of the samples' latencies.
func percentileMs(samples []sample, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	lat := make([]time.Duration, len(samples))
	for i, s := range samples {
		lat[i] = s.latency
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rank := int(math.Ceil(q*float64(len(lat)))) - 1
	return float64(lat[max(rank, 0)].Nanoseconds()) / 1e6
}

// provenance records what the numbers were measured on and with.
func provenance(name string, seed uint64, clients int) map[string]string {
	p := map[string]string{
		"workload":   name,
		"seed":       fmt.Sprint(seed),
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"clients":    fmt.Sprint(clients),
		"insts":      fmt.Sprint(insts),
		"cpu_model":  cpuModel(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
