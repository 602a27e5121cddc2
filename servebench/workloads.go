package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcg/internal/core"
	"dcg/internal/obs"
	"dcg/internal/server"
	"dcg/internal/simrun"
	"dcg/internal/store"
)

// env is what every workload shares: where it may write, the seed's
// random stream and the closed loop's width.
type env struct {
	root    string // checkout root (holds servebench/expected.json)
	work    string // scratch directory for stores, removed at exit
	seed    uint64
	clients int
}

// phase is one measured phase: every sample plus the resources it used.
type phase struct {
	samples []sample
	meter   meter
	heap    uint64 // live heap at the end, server still alive, samples excluded
	counts  counts // counters the phase's requests moved
}

// merge adds another phase's samples and resource use to p.
func (p *phase) merge(o *phase) {
	p.samples = append(p.samples, o.samples...)
	p.meter.wall += o.meter.wall
	p.meter.cpu += o.meter.cpu
	p.meter.allocated += o.meter.allocated
	p.counts.add(counts{}, o.counts)
}

// counts are the counters a round reads before and after its requests:
// the server's /metrics (traced phases only), its store's and the
// program's process-wide decode and replay counters.
type counts struct {
	metrics map[string]float64
	store   store.Stats
	proc    processCounters
}

func (t *target) counts(traced bool) (counts, error) {
	c := counts{proc: readCounters()}
	if t.store != nil {
		c.store = t.store.Stats()
	}
	if !traced {
		return c, nil
	}
	var err error
	c.metrics, err = t.metrics()
	return c, err
}

// add accumulates the counters' growth from before to after.
func (c *counts) add(before, after counts) {
	c.store.Hits += after.store.Hits - before.store.Hits
	c.store.Misses += after.store.Misses - before.store.Misses
	c.store.Writes += after.store.Writes - before.store.Writes
	c.proc.add(before.proc, after.proc)
	if after.metrics != nil && c.metrics == nil {
		c.metrics = make(map[string]float64)
	}
	for k, v := range after.metrics {
		c.metrics[k] += v - before.metrics[k]
	}
}

// round drives one request source on t and adds its samples and the
// counters it moved to the phase.
func (p *phase) round(e *env, exp expected, t *target, next sendFunc, tracer *obs.Tracer) error {
	before, err := t.counts(tracer != nil)
	if err != nil {
		return err
	}
	p.meter.resume()
	p.samples = append(p.samples, t.drive(exp, e.clients, next, tracer)...)
	p.meter.pause()
	after, err := t.counts(tracer != nil)
	if err != nil {
		return err
	}
	p.counts.add(before, after)
	return nil
}

// mix is one workload: a traffic mix. plan fixes the seed's requests once
// and is not timed; setup prepares a fresh server instance and may be
// called several times (set-up time is the median), so it does only the
// program's work; measure then runs the measured phase on the last
// instance for at least the given duration.
type mix interface {
	plan(e *env, exp expected)
	setup(e *env) error
	measure(e *env, d time.Duration, tracer *obs.Tracer) (*phase, error)
	// probeKeys are the workload's own keys the isolated layer probes use.
	probeKeys() []key
	// drift reports how the served mix departs from the workload's purpose.
	drift(p *phase) []string
	// dominant names the layer group that should dominate the traced run.
	dominant() string
	close()
}

func newMix(name string) (mix, bool) {
	switch name {
	case "cold_capture":
		return &coldCapture{}, true
	case "warm_replay":
		return &warmReplay{}, true
	}
	return nil, false
}

// sequence hands out a fixed request list, each request once.
func sequence(reqs []planned) sendFunc {
	var next atomic.Int64
	return func(int) (*planned, bool) {
		i := next.Add(1) - 1
		if i >= int64(len(reqs)) {
			return nil, false
		}
		return &reqs[i], true
	}
}

// rounds runs whole rounds of reqs until d has been measured. Each round
// gets a fresh server from open (not measured), so every round starts
// from the state the workload defines. The server of the last round is
// kept alive while the live heap is taken.
func rounds(e *env, exp expected, reqs []planned, d time.Duration, tracer *obs.Tracer,
	first *target, open func(tracer *obs.Tracer) (*target, error), reset func() error) (*phase, error) {
	p := &phase{}
	t := first
	if tracer != nil && t != nil {
		// The set-up's server is untraced: start over on a traced one.
		t.close()
		t = nil
		if err := reset(); err != nil {
			return nil, err
		}
	}
	for {
		if t == nil {
			var err error
			if t, err = open(tracer); err != nil {
				return nil, err
			}
		}
		if err := p.round(e, exp, t, sequence(reqs), tracer); err != nil {
			t.close()
			return nil, err
		}
		done := p.meter.wall >= d
		if done {
			p.heap = liveHeap() - uint64(cap(p.samples))*sampleBytes
		}
		t.close()
		t = nil
		if err := reset(); err != nil {
			return nil, err
		}
		if done {
			return p, nil
		}
	}
}

// coldCapture is the paper's Figure 10 request set on empty caches and an
// empty store: every (benchmark, machine) is asked for dcg (a capture
// that also writes its timing trace to the store) and plb-orig and
// plb-ext (full runs). Each round covers the whole universe once on a
// fresh server and store.
type coldCapture struct {
	exp   expected
	reqs  []planned
	dir   string
	first *target
}

func (w *coldCapture) plan(e *env, exp expected) {
	rng := rand.New(rand.NewPCG(e.seed, 1))
	schemes := []core.SchemeKind{core.SchemeDCG, core.SchemePLBOrig, core.SchemePLBExt}
	var keys []key
	benches := benchmarks()
	for _, g := range rng.Perm(len(benches) * len(machines)) {
		for _, s := range rng.Perm(len(schemes)) {
			keys = append(keys, key{Bench: benches[g/len(machines)], Machine: g % len(machines), Scheme: schemes[s]})
		}
	}
	w.exp, w.reqs = exp, plan(keys)
}

func (w *coldCapture) setup(e *env) error {
	var err error
	w.first, err = w.open(e, nil)
	return err
}

func (w *coldCapture) open(e *env, tracer *obs.Tracer) (*target, error) {
	dir, err := os.MkdirTemp(e.work, "cold-store-")
	if err != nil {
		return nil, err
	}
	w.dir = dir
	st, err := store.Open(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	return startTarget(server.Config{Store: st, Tracer: tracer}, e.clients)
}

func (w *coldCapture) measure(e *env, d time.Duration, tracer *obs.Tracer) (*phase, error) {
	first := w.first
	w.first = nil
	return rounds(e, w.exp, w.reqs, d, tracer, first,
		func(tr *obs.Tracer) (*target, error) { return w.open(e, tr) },
		func() error { return os.RemoveAll(w.dir) })
}

func (w *coldCapture) probeKeys() []key { return keysOf(w.reqs) }

func (w *coldCapture) drift(p *phase) []string {
	return sourceDrift(p, "simulated", 1.0)
}

func (w *coldCapture) dominant() string { return "core" }

func (w *coldCapture) close() {
	if w.first != nil {
		w.first.close()
		w.first = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// warmReplay serves timing-neutral schemes from a store whose timing
// traces were captured during set-up, on a fresh server whose caches are
// empty. Every benchmark keeps two of the three machines; each kept
// (benchmark, machine) has a usage-only capture, asked for the
// four packed schemes, and one of the two also has a latchvalue capture,
// asked for the two scalar ones. A round walks all 42 traces in one
// seeded order per scheme pass (the 28 usage traces in the last two), so
// a trace comes back only after every other trace of the pass has been
// read: more than the server's 16-entry timing cache holds, so nearly every
// request reads, validates and decodes a trace from the store, replays
// it and writes a result. The core runs only in set-up.
type warmReplay struct {
	exp     expected
	reqs    []planned
	timings []simrun.Key // the traces set-up captures
	dir     string
	first   *target
}

var (
	packedSchemes = []core.SchemeKind{core.SchemeNone, core.SchemeDCG, core.SchemeOracle, core.SchemeLector}
	scalarSchemes = []core.SchemeKind{core.SchemeDDCG, core.SchemeDCGDDCG}
)

func (w *warmReplay) plan(e *env, exp expected) {
	rng := rand.New(rand.NewPCG(e.seed, 2))
	type tkey struct {
		bench   string
		machine int
		latch   bool
	}
	// Every seed captures the same traces: benchmark i drops machine
	// i mod 3, and which kept machine also gets the latchvalue capture
	// alternates, so each machine has 9 or 10 usage traces and 4 or 5
	// latchvalue ones. A seed-chosen
	// set would move alloc_mb_per_req and heap_live_mb with the seed,
	// because trace sizes differ by benchmark and machine; the seed
	// orders the requests instead.
	benches := benchmarks()
	var tkeys []tkey
	for i, b := range benches {
		drop := i % len(machines)
		kept := 0
		for mi := range machines {
			if mi == drop {
				continue
			}
			tkeys = append(tkeys, tkey{b, mi, false})
			if kept == (i/len(machines))%2 {
				tkeys = append(tkeys, tkey{b, mi, true})
			}
			kept++
		}
	}
	order := rng.Perm(len(tkeys))
	// Per trace, the order its schemes are asked in.
	schemeOrder := make([][]int, len(tkeys))
	for i, tk := range tkeys {
		n := len(packedSchemes)
		if tk.latch {
			n = len(scalarSchemes)
		}
		schemeOrder[i] = rng.Perm(n)
	}
	var keys []key
	for pass := 0; pass < len(packedSchemes); pass++ {
		for _, i := range order {
			tk := tkeys[i]
			schemes := packedSchemes
			if tk.latch {
				schemes = scalarSchemes
			}
			if pass < len(schemes) {
				keys = append(keys, key{Bench: tk.bench, Machine: tk.machine, Scheme: schemes[schemeOrder[i][pass]]})
			}
		}
	}
	w.timings = make([]simrun.Key, 0, len(tkeys))
	for _, tk := range tkeys {
		s := core.SchemeNone
		if tk.latch {
			s = core.SchemeDDCG
		}
		w.timings = append(w.timings, key{Bench: tk.bench, Machine: tk.machine, Scheme: s}.simKey())
	}
	w.exp, w.reqs = exp, plan(keys)
}

func (w *warmReplay) setup(e *env) error {
	var err error
	if w.dir, err = os.MkdirTemp(e.work, "warm-store-"); err != nil {
		return err
	}
	st, err := store.Open(w.dir, 0, nil)
	if err != nil {
		return err
	}
	if err := captureInto(st, w.timings, e.clients); err != nil {
		return err
	}
	w.first, err = startTarget(server.Config{Store: st}, e.clients)
	return err
}

// captureInto captures every key's timing trace and writes it to st.
func captureInto(st *store.Store, keys []simrun.Key, workers int) error {
	ctx := context.Background()
	err := parallel(len(keys), workers, func(i int) error {
		_, tm, err := simrun.Capture(ctx, keys[i])
		if err != nil {
			return fmt.Errorf("capture %s: %w", keys[i].Bench, err)
		}
		st.PutTiming(ctx, keys[i].TimingKey(), tm)
		return nil
	})
	if err != nil {
		return err
	}
	if got := st.Stats().Writes; got != uint64(len(keys)) {
		return fmt.Errorf("store kept %d of %d timing traces", got, len(keys))
	}
	return nil
}

// parallel runs fn(0..n-1) on workers goroutines and returns the first
// error by index.
func parallel(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *warmReplay) open(e *env, tracer *obs.Tracer) (*target, error) {
	st, err := store.Open(w.dir, 0, nil)
	if err != nil {
		return nil, err
	}
	return startTarget(server.Config{Store: st, Tracer: tracer}, e.clients)
}

// dropResults removes the result artifacts a round wrote, so the next
// round finds only the set-up's timing traces.
func (w *warmReplay) dropResults() error {
	return filepath.WalkDir(w.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".res") {
			return os.Remove(path)
		}
		return nil
	})
}

func (w *warmReplay) measure(e *env, d time.Duration, tracer *obs.Tracer) (*phase, error) {
	first := w.first
	w.first = nil
	return rounds(e, w.exp, w.reqs, d, tracer, first,
		func(tr *obs.Tracer) (*target, error) { return w.open(e, tr) },
		w.dropResults)
}

func (w *warmReplay) probeKeys() []key { return keysOf(w.reqs) }

// drift warns when requests stop being store-warm replays, or when the
// timing cache starts answering enough of them that decode no longer
// dominates.
func (w *warmReplay) drift(p *phase) []string {
	out := sourceDrift(p, "replayed", 0.9)
	if p.counts.metrics != nil {
		if r := ratio(p.counts.metrics["dcgserve_timing_cache_hits_total"],
			p.counts.metrics["dcgserve_timing_cache_hits_total"]+p.counts.metrics["dcgserve_timing_cache_misses_total"]); r > 0.25 {
			out = append(out, fmt.Sprintf("timing cache answered %.0f%% of replays; store read + decode no longer dominates", 100*r))
		}
	}
	return out
}

func (w *warmReplay) dominant() string { return "read+decode" }

func (w *warmReplay) close() {
	if w.first != nil {
		w.first.close()
		w.first = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

func keysOf(reqs []planned) []key {
	out := make([]key, len(reqs))
	for i, r := range reqs {
		out[i] = r.key
	}
	return out
}

// sourceDrift warns when fewer than min of the phase's answers were
// served from want.
func sourceDrift(p *phase, want string, min float64) []string {
	n := 0
	for _, s := range p.samples {
		if s.source == want {
			n++
		}
	}
	if len(p.samples) == 0 {
		return nil
	}
	if share := float64(n) / float64(len(p.samples)); share < min {
		return []string{fmt.Sprintf("only %.1f%% of answers were served %q (want at least %.0f%%)", 100*share, want, 100*min)}
	}
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
