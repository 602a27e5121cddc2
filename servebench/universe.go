package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"

	"dcg/internal/core"
	"dcg/internal/server"
	"dcg/internal/simrun"
	"dcg/internal/workload"
)

// insts is the measured instruction count of every request: dcgserve's
// default request size (server.Config.DefaultInsts and -default-insts),
// so the layer shares are those of the requests the service is sent.
const insts = 300_000

// excludedBenchmarks are left out of the key universe. mcf runs ~7x and
// lucas ~3x the cycles of every other benchmark; the server's 16-entry
// timing cache keeps one trace per shard, so whether their multi-megabyte
// traces happen to be resident when a run ends would swing heap_live_mb
// with the seed far beyond any bound a regression gate can use.
var excludedBenchmarks = map[string]bool{"mcf": true, "lucas": true}

// machine is one processor variant of the key universe.
type machine struct {
	Name   string
	Deep   bool
	IntALU int
}

// machines are the variants every benchmark is asked on: the paper's base
// machine, the 20-stage pipeline of section 5.6, and the section 4.4
// ALU-count sweep at 4 integer ALUs.
var machines = []machine{
	{Name: "base"},
	{Name: "deep", Deep: true},
	{Name: "int_alus", IntALU: 4},
}

// universeSchemes are the schemes the workloads request.
var universeSchemes = []core.SchemeKind{
	core.SchemeNone, core.SchemeDCG, core.SchemeOracle, core.SchemeLector,
	core.SchemeDDCG, core.SchemeDCGDDCG, core.SchemePLBOrig, core.SchemePLBExt,
}

// benchmarks returns the universe's benchmark names in workload.Names order.
func benchmarks() []string {
	var out []string
	for _, b := range workload.Names() {
		if !excludedBenchmarks[b] {
			out = append(out, b)
		}
	}
	return out
}

// key is one request of the universe.
type key struct {
	Bench   string
	Machine int // index into machines
	Scheme  core.SchemeKind
}

func (k key) String() string {
	return fmt.Sprintf("%s/%s/%s", k.Bench, machines[k.Machine].Name, k.Scheme)
}

// simKey is the simulation key the server derives from k's request.
func (k key) simKey() simrun.Key {
	m := machines[k.Machine]
	return simrun.Key{Bench: k.Bench, Scheme: k.Scheme, Deep: m.Deep, IntALU: m.IntALU, Insts: insts}
}

// request is the /v1/sim body for k.
func (k key) request() server.SimRequest {
	m := machines[k.Machine]
	return server.SimRequest{Benchmark: k.Bench, Scheme: string(k.Scheme), Insts: insts, Deep: m.Deep, IntALUs: m.IntALU}
}

// utilization mirrors the response's utilization object.
type utilization struct {
	IntUnits  float64 `json:"int_units"`
	FPUnits   float64 `json:"fp_units"`
	Latches   float64 `json:"latches"`
	DPorts    float64 `json:"d_ports"`
	ResultBus float64 `json:"result_bus"`
}

// answer is the simulated content of one /v1/sim response: every field
// except how the request was served (source) and how long it took
// (elapsed_ms). The JSON names are the response's, so a response body
// decodes straight into it.
type answer struct {
	Benchmark string `json:"benchmark"`
	Scheme    string `json:"scheme"`
	Insts     uint64 `json:"insts"`
	Deep      bool   `json:"deep,omitempty"`
	IntALUs   int    `json:"int_alus,omitempty"`

	Cycles    uint64  `json:"cycles"`
	Committed uint64  `json:"committed"`
	IPC       float64 `json:"ipc"`

	AvgPower      float64 `json:"avg_power"`
	BaselinePower float64 `json:"baseline_power"`
	Saving        float64 `json:"saving"`

	Util utilization `json:"utilization"`

	BranchAccuracy float64 `json:"branch_accuracy"`
	DL1MissRate    float64 `json:"dl1_miss_rate"`
	L2MissRate     float64 `json:"l2_miss_rate"`

	LeadViolations uint64 `json:"lead_violations"`
	GateViolations uint64 `json:"gate_violations"`
}

// reply is a decoded /v1/sim response.
type reply struct {
	answer
	Source string `json:"source"`
}

// answerOf renders a direct simulation result as the answer the service
// must give for k.
func answerOf(k key, r *core.Result) answer {
	m := machines[k.Machine]
	return answer{
		Benchmark: k.Bench, Scheme: string(k.Scheme), Insts: insts, Deep: m.Deep, IntALUs: m.IntALU,
		Cycles: r.Cycles, Committed: r.Committed, IPC: r.IPC,
		AvgPower: r.AvgPower, BaselinePower: r.BaselinePower, Saving: r.Saving,
		Util: utilization{
			IntUnits: r.Util.IntUnits, FPUnits: r.Util.FPUnits, Latches: r.Util.Latches,
			DPorts: r.Util.DPorts, ResultBus: r.Util.ResultBus,
		},
		BranchAccuracy: r.BranchAccuracy, DL1MissRate: r.DL1MissRate, L2MissRate: r.L2MissRate,
		LeadViolations: r.LeadViolations, GateViolations: r.GateViolations,
	}
}

// expectedFile is the on-disk form of the expected results.
type expectedFile struct {
	Insts   uint64   `json:"insts"`
	Results []answer `json:"results"`
}

// expected maps every key of the universe to its exact answer.
type expected map[key]answer

// loadExpected reads the committed expected-results file and checks that
// it covers the whole universe.
func loadExpected(path string) (expected, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("expected results: %w", err)
	}
	var f expectedFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("expected results %s: %w", path, err)
	}
	if f.Insts != insts {
		return nil, fmt.Errorf("expected results %s are for %d instructions, want %d", path, f.Insts, insts)
	}
	exp := make(expected, len(f.Results))
	for _, a := range f.Results {
		k, ok := keyOf(a)
		if !ok {
			return nil, fmt.Errorf("expected results %s: entry %s/%s is outside the universe", path, a.Benchmark, a.Scheme)
		}
		exp[k] = a
	}
	for _, k := range universe() {
		if _, ok := exp[k]; !ok {
			return nil, fmt.Errorf("expected results %s: no entry for %s", path, k)
		}
	}
	return exp, nil
}

// keyOf recovers the universe key an answer belongs to.
func keyOf(a answer) (key, bool) {
	for mi, m := range machines {
		if m.Deep == a.Deep && m.IntALU == a.IntALUs {
			return key{Bench: a.Benchmark, Machine: mi, Scheme: core.SchemeKind(a.Scheme)}, true
		}
	}
	return key{}, false
}

// universe enumerates every key, benchmark-major.
func universe() []key {
	var out []key
	for _, b := range benchmarks() {
		for mi := range machines {
			for _, s := range universeSchemes {
				out = append(out, key{Bench: b, Machine: mi, Scheme: s})
			}
		}
	}
	return out
}

// check compares a reply against the expected answer bit for bit and
// checks the soundness invariants every scheme must hold. It returns ""
// for a correct reply and a description of the first problem otherwise.
func (e expected) check(k key, r *reply) string {
	want := e[k]
	if r.answer != want {
		return fmt.Sprintf("%s: answer differs from the expected result (source %q)", k, r.Source)
	}
	return invariantProblem(k, r.answer)
}

// baselineSavingTolerance is the program's own contract for the all-on
// baseline (core's TestBaselineInvariants): its saving is zero up to the
// rounding of 1 - avg/baseline, which leaves -2.2e-16 on about half of
// the universe's "none" answers.
const baselineSavingTolerance = 1e-9

// invariantProblem checks lead_violations == 0, gate_violations == 0 and
// 0 <= saving < 1 (|saving| <= 1e-9 for the "none" baseline).
func invariantProblem(k key, a answer) string {
	switch {
	case a.LeadViolations != 0:
		return fmt.Sprintf("%s: lead_violations = %d", k, a.LeadViolations)
	case a.GateViolations != 0:
		return fmt.Sprintf("%s: gate_violations = %d", k, a.GateViolations)
	case k.Scheme == core.SchemeNone:
		if a.Saving < -baselineSavingTolerance || a.Saving > baselineSavingTolerance {
			return fmt.Sprintf("%s: baseline saving = %v, not 0", k, a.Saving)
		}
	case !(a.Saving >= 0 && a.Saving < 1):
		return fmt.Sprintf("%s: saving = %v outside [0, 1)", k, a.Saving)
	}
	return ""
}

// generateExpected runs every key of the universe as a direct full
// simulation (no capture, no replay, no cache) and writes the answers.
// Golden tests hold capture+replay bit-identical to a direct run, so the
// service's answers on every serving path must equal these.
func generateExpected(ctx context.Context, path string, workers int) error {
	keys := universe()
	out := make([]answer, len(keys))
	err := parallel(len(keys), workers, func(i int) error {
		res, err := simrun.Run(ctx, keys[i].simKey())
		if err != nil {
			return fmt.Errorf("%s: %w", keys[i], err)
		}
		out[i] = answerOf(keys[i], res)
		return nil
	})
	if err != nil {
		return err
	}
	for i, a := range out {
		if p := invariantProblem(keys[i], a); p != "" {
			fmt.Fprintln(os.Stderr, "warning: expected result breaks an invariant:", p)
		}
	}
	// One result per line keeps the committed file diffable.
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"insts\": %d, \"results\": [\n", insts)
	for j, a := range out {
		line, err := json.Marshal(a)
		if err != nil {
			return err
		}
		buf.Write(line)
		if j < len(out)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
