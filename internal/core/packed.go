package core

// This file is the packed replay engine: a scheme's Result derived from
// the bit-packed columnar kernel (usagetrace.Packed + gating.PackedTally)
// in O(cycles/64)-ish work instead of a per-cycle callback replay, and
// bit-identical to the fused scalar engine. A scheme the kernel cannot
// evaluate (a wrapped or foreign scheme type, a mismatched machine
// config, a bus schedule beyond the histogram's exact range) falls back
// to the scalar engine — per scheme on the automatic route, whole-set on
// the strict EvaluateTimingPacked entry.

import (
	"fmt"
	"sync/atomic"

	"dcg/internal/gating"
	"dcg/internal/power"
	"dcg/internal/usagetrace"
)

// Package-wide packed-replay accounting, exported for the service's
// /metrics endpoint and the routing regression tests. Monotonic
// process-lifetime counters.
var (
	packedSchemeCount   atomic.Uint64
	packedFallbackCount atomic.Uint64
)

// PackedReplaySchemes returns how many scheme evaluations the packed
// kernel has served process-wide.
func PackedReplaySchemes() uint64 { return packedSchemeCount.Load() }

// PackedReplayFallbacks returns how many replay evaluations requested
// the packed kernel but fell back to the scalar fused engine (wrapped or
// foreign scheme types, machine mismatch, out-of-range bus schedules).
func PackedReplayFallbacks() uint64 { return packedFallbackCount.Load() }

// EvaluateTimingPacked evaluates timing-neutral scheme kinds against a
// captured timing strictly through the packed kernel: unlike
// EvaluateTimingAll — which routes here automatically and falls back to
// scalar replay when it must — this entry returns an error if the set
// cannot be packed-evaluated. For benchmarks and tests that must know
// which engine ran.
func (s *Simulator) EvaluateTimingPacked(t *Timing, kinds []SchemeKind) ([]*Result, error) {
	if t == nil || t.Trace == nil {
		return nil, fmt.Errorf("core: evaluation requires a captured timing trace")
	}
	schemes, err := s.replaySchemes(kinds)
	if err != nil {
		return nil, err
	}
	results, ok, err := s.evalPackedSchemes(t, schemes)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: scheme set is not packed-evaluable (telemetry, disabled, or ineligible scheme)")
	}
	return results, nil
}

// evalPackedSchemes attempts the packed evaluation of a whole scheme
// set. ok=false (with nil error) means the simulator cannot take the
// packed route (telemetry attached, packed replay disabled) or at least
// one scheme cannot be packed-evaluated; an error means the evaluation
// is invalid on any path.
func (s *Simulator) evalPackedSchemes(t *Timing, schemes []gating.Scheme) ([]*Result, bool, error) {
	if s.Telemetry != nil || s.DisablePackedReplay {
		return nil, false, nil
	}
	d, err := replayDecode(t)
	if err != nil {
		return nil, false, err
	}
	results := make([]*Result, len(schemes))
	for i, scheme := range schemes {
		res, ok, err := s.packedResult(t, d, scheme)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			packedFallbackCount.Add(uint64(len(schemes)))
			return nil, false, nil
		}
		results[i] = res
	}
	packedSchemeCount.Add(uint64(len(schemes)))
	return results, true, nil
}

// packedResult evaluates one scheme through the packed kernel — the same
// model/accountant construction the scalar engine performs, with the
// kernel's tally installed in place of a replayed one. ok is false when
// the kernel cannot evaluate the scheme.
func (s *Simulator) packedResult(t *Timing, d *usagetrace.Decoded, scheme gating.Scheme) (*Result, bool, error) {
	tally, lead, ok := gating.PackedTally(d, scheme, t.Machine)
	if !ok {
		return nil, false, nil
	}
	model, err := power.NewModel(t.Machine)
	if err != nil {
		return nil, false, err
	}
	acct := power.NewAccountant(model, scheme)
	acct.LeakageFrac = s.LeakageFrac
	acct.Tally = tally
	if err := acct.Validate(); err != nil {
		return nil, false, fmt.Errorf("core: scheme %s: %w", scheme.Name(), err)
	}
	res := resultFor(t, scheme, model, acct)
	// The scheme instance was never fed, so resultFor's type switch
	// read zero lead violations; install the packed kernel's count.
	res.LeadViolations = lead
	return res, true, nil
}
