package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"dcg/internal/core"
	"dcg/internal/cpu"
	"dcg/internal/obs"
	"dcg/internal/simrun"
	"dcg/internal/trace"
	"dcg/internal/usagetrace"
	"dcg/internal/workload"
)

// Span names. client.request is the benchmark's own root span around each
// call; the server continues its trace (traceparent header) with one span
// per layer it passes through.
const (
	spanClient     = "client.request"
	spanHTTP       = "http /v1/sim"
	spanLookup     = "simrun.lookup"
	spanCapture    = "sim.capture"
	spanFull       = "sim.full"
	spanReplay     = "sim.replay"
	spanDecode     = "trace.decode"
	spanGetResult  = "store.get_result"
	spanPutResult  = "store.put_result"
	spanGetTiming  = "store.get_timing"
	spanPutTiming  = "store.put_timing"
	replayPacked   = spanReplay + "/packed"
	replayScalar   = spanReplay + "/scalar"
	tracerCapacity = 1 << 17
)

// spanStats is the traced phase's spans reduced to per-layer self time:
// a span's duration minus the part its child spans cover.
type spanStats struct {
	requests    int                      // traced requests (client roots)
	self        map[string]time.Duration // by span name; sim.replay split by engine
	calls       map[string]int
	traceBytes  []int64 // trace sizes seen by captures and decodes
	timingReads int     // store.get_timing calls that found the trace
}

func attr(sp *obs.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// reduceSpans keeps only the traces the benchmark's own requests rooted,
// so set-up traffic to a traced server is not counted.
func reduceSpans(spans []*obs.Span) *spanStats {
	measured := make(map[obs.TraceID]bool)
	for _, sp := range spans {
		if sp.Name == spanClient {
			measured[sp.TraceID] = true
		}
	}
	children := make(map[obs.SpanID]time.Duration, len(spans))
	for _, sp := range spans {
		if !sp.Parent.IsZero() {
			children[sp.Parent] += sp.Duration()
		}
	}
	st := &spanStats{self: make(map[string]time.Duration), calls: make(map[string]int)}
	for _, sp := range spans {
		if !measured[sp.TraceID] {
			continue
		}
		name := sp.Name
		switch name {
		case spanClient:
			st.requests++
		case spanReplay:
			name += "/" + attr(sp, "engine")
		case spanGetTiming:
			if attr(sp, "hit") == "true" {
				st.timingReads++
			}
		}
		if name == spanCapture || name == spanDecode {
			if n, err := strconv.ParseInt(attr(sp, "trace_bytes"), 10, 64); err == nil {
				st.traceBytes = append(st.traceBytes, n)
			}
		}
		self := sp.Duration() - children[sp.ID]
		if self < 0 {
			self = 0
		}
		st.self[name] += self
		st.calls[sp.Name]++
	}
	return st
}

// msPerReq is the named layers' self time per traced request.
func (st *spanStats) msPerReq(names ...string) float64 {
	var d time.Duration
	for _, n := range names {
		d += st.self[n]
	}
	return ratio(float64(d)/1e6, float64(st.requests))
}

// layerGroups are the layers whose shares the traced run compares to
// confirm each workload's dominant layer.
var layerGroups = map[string][]string{
	"core":        {spanCapture, spanFull},
	"read+decode": {spanGetTiming, spanDecode},
	"replay":      {replayPacked, replayScalar},
	"store write": {spanPutTiming, spanPutResult},
	"server":      {spanClient, spanHTTP, spanLookup},
}

// dominantGroup returns the layer group with the most self time and its
// share of all traced time.
func (st *spanStats) dominantGroup() (string, float64) {
	var total time.Duration
	for _, d := range st.self {
		total += d
	}
	best, bestD := "", time.Duration(-1)
	for g, names := range layerGroups {
		var d time.Duration
		for _, n := range names {
			d += st.self[n]
		}
		if d > bestD || (d == bestD && g < best) {
			best, bestD = g, d
		}
	}
	return best, ratio(float64(bestD), float64(total))
}

// processCounters are the program's process-wide replay and decode counters.
type processCounters struct {
	decodes, decodeReuses, packedFallbacks uint64
}

// add accumulates the counters' growth from before to after.
func (c *processCounters) add(before, after processCounters) {
	c.decodes += after.decodes - before.decodes
	c.decodeReuses += after.decodeReuses - before.decodeReuses
	c.packedFallbacks += after.packedFallbacks - before.packedFallbacks
}

func readCounters() processCounters {
	return processCounters{
		decodes:         usagetrace.Decodes(),
		decodeReuses:    usagetrace.DecodeReuses(),
		packedFallbacks: core.PackedReplayFallbacks(),
	}
}

// probeResult is what the isolated layer probes measured.
type probeResult struct {
	genNsPerInst  float64
	warmNsPerInst float64
	readMsPerCall float64
}

// probeRepeats is how often each probe runs per key; the median is kept.
const probeRepeats = 3

// runProbes times the capture internals and the trace reader on the
// workload's own keys, outside the request path: workload.Generator.Next
// over a request's warm-up plus measured instructions, cpu.Core.Warm over
// a pre-generated warm-up stream, and usagetrace.ReadTrace over the
// gzip-encoded usage trace the store would hold for the key.
func runProbes(keys []key) (probeResult, error) {
	var gen, warm, read []float64
	type benchMachine struct {
		bench   string
		machine int
	}
	seen := make(map[benchMachine]bool)
	for _, k := range keys {
		if len(seen) == 3 {
			break
		}
		id := benchMachine{k.Bench, k.Machine}
		if seen[id] {
			continue
		}
		seen[id] = true
		prof, _ := workload.ByName(k.Bench)
		sk := k.simKey()
		n := core.DefaultWarmup + insts
		for r := 0; r < probeRepeats; r++ {
			g, err := workload.NewGenerator(prof)
			if err != nil {
				return probeResult{}, err
			}
			start := time.Now()
			for i := 0; i < n; i++ {
				g.Next()
			}
			gen = append(gen, float64(time.Since(start).Nanoseconds())/float64(n))
		}

		g, err := workload.NewGenerator(prof)
		if err != nil {
			return probeResult{}, err
		}
		stream := make([]trace.DynInst, core.DefaultWarmup)
		for i := range stream {
			stream[i], _ = g.Next()
		}
		for r := 0; r < probeRepeats; r++ {
			c, err := cpu.New(sk.Machine(), trace.NewSliceSource(k.Bench, nil))
			if err != nil {
				return probeResult{}, err
			}
			start := time.Now()
			c.Warm(trace.NewSliceSource(k.Bench, stream), uint64(len(stream)))
			warm = append(warm, float64(time.Since(start).Nanoseconds())/float64(len(stream)))
		}

		sk.Scheme = core.SchemeNone
		_, tm, err := simrun.Capture(context.Background(), sk)
		if err != nil {
			return probeResult{}, err
		}
		var enc bytes.Buffer
		if err := tm.Trace.EncodeGzip(&enc); err != nil {
			return probeResult{}, err
		}
		for r := 0; r < probeRepeats; r++ {
			start := time.Now()
			if _, err := usagetrace.ReadTrace(bytes.NewReader(enc.Bytes())); err != nil {
				return probeResult{}, fmt.Errorf("probe read %s: %w", k, err)
			}
			read = append(read, float64(time.Since(start).Nanoseconds())/1e6)
		}
	}
	return probeResult{genNsPerInst: median(gen), warmNsPerInst: median(warm), readMsPerCall: median(read)}, nil
}

// layerMetrics derives every per-layer metric from the traced phase, the
// isolated probes and the untraced phase it alternated with.
func layerMetrics(untraced, traced *phase, st *spanStats, pr probeResult) []metric {
	delta := traced.counts.proc
	n := float64(st.requests)
	served := make(map[string]float64)
	var simCycles float64
	for _, s := range traced.samples {
		served[s.source]++
		if s.source == "simulated" {
			simCycles += float64(s.cycles)
		}
	}
	m := traced.counts.metrics
	hitRatio := func(prefix string) float64 {
		h := m[prefix+"_hits_total"]
		return ratio(h, h+m[prefix+"_misses_total"])
	}
	var bytesSum float64
	for _, b := range st.traceBytes {
		bytesSum += float64(b)
	}
	return []metric{
		{"core.capture.ms_per_req", "ms/req", st.msPerReq(spanCapture)},
		{"core.capture.calls", "count", float64(st.calls[spanCapture])},
		{"core.full.ms_per_req", "ms/req", st.msPerReq(spanFull)},
		{"core.full.calls", "count", float64(st.calls[spanFull])},
		{"cpu.sim_cycles", "cycles/req", ratio(simCycles, n)},
		{"cpu.warm.ns_per_inst", "ns/inst", pr.warmNsPerInst},
		{"workload.gen.ns_per_inst", "ns/inst", pr.genNsPerInst},
		{"store.put_timing.ms_per_req", "ms/req", st.msPerReq(spanPutTiming)},
		{"store.put_result.ms_per_req", "ms/req", st.msPerReq(spanPutResult)},
		{"store.writes", "count", float64(traced.counts.store.Writes)},
		{"store.get_timing.ms_per_req", "ms/req", st.msPerReq(spanGetTiming)},
		{"store.get_result.ms_per_req", "ms/req", st.msPerReq(spanGetResult)},
		{"store.hit_ratio", "ratio", ratio(float64(traced.counts.store.Hits), float64(traced.counts.store.Hits+traced.counts.store.Misses))},
		{"usagetrace.read.ms_per_trace", "ms", pr.readMsPerCall},
		{"usagetrace.read.ms_per_req", "ms/req", pr.readMsPerCall * ratio(float64(st.timingReads), n)},
		{"usagetrace.decode.ms_per_req", "ms/req", st.msPerReq(spanDecode)},
		{"usagetrace.decodes", "count", float64(delta.decodes)},
		{"usagetrace.decode_reuses", "count", float64(delta.decodeReuses)},
		{"usagetrace.trace_bytes_mean", "bytes", ratio(bytesSum, float64(len(st.traceBytes)))},
		{"core.replay_packed.ms_per_req", "ms/req", st.msPerReq(replayPacked)},
		{"core.replay_scalar.ms_per_req", "ms/req", st.msPerReq(replayScalar)},
		{"core.replay.calls", "count", float64(st.calls[spanReplay])},
		{"core.packed_fallbacks", "count", float64(delta.packedFallbacks)},
		{"server.self_ms_per_req", "ms/req", st.msPerReq(spanHTTP)},
		{"server.queue_wait_ms_per_req", "ms/req", ratio(1000*m["dcgserve_worker_wait_seconds_sum"], n)},
		{"http.transport_ms_per_req", "ms/req", st.msPerReq(spanClient)},
		{"simrun.lookup.ms_per_req", "ms/req", st.msPerReq(spanLookup)},
		{"simrun.result_hit_ratio", "ratio", hitRatio("dcgserve_result_cache")},
		{"simrun.timing_hit_ratio", "ratio", hitRatio("dcgserve_timing_cache")},
		{"simrun.coalesced", "count", m["dcgserve_result_cache_coalesced_total"] + m["dcgserve_timing_cache_coalesced_total"]},
		{"simrun.served.simulated", "count", served["simulated"]},
		{"simrun.served.replayed", "count", served["replayed"]},
		{"simrun.served.cache", "count", served["cache"]},
		{"simrun.served.store", "count", served["store"]},
		{"simrun.served.coalesced", "count", served["coalesced"]},
		{"tracing.overhead_ms_p50", "ms", percentileMs(traced.samples, 0.5) - percentileMs(untraced.samples, 0.5)},
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
