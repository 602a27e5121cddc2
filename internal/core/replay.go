package core

// This file is the replay entry point: one evaluation of any number of
// timing-neutral schemes against a captured timing, over the trace's
// columnar decode (usagetrace.Trace.Decode, memoized per trace). Each
// scheme rides one of two engines:
//
//   - the packed kernel (packed.go), which derives the scheme's tally
//     from decode-time bit-planes and aggregates without a per-cycle
//     pass; and
//   - the fused scalar engine, which replays the decode cycle by cycle
//     through every remaining scheme's gating controller and power
//     accountant in a single pass.
//
// The scalar engine is the reference: golden tests hold it bit-identical
// to direct runs and the packed kernel bit-identical to it.

import (
	"fmt"

	"dcg/internal/gating"
	"dcg/internal/power"
	"dcg/internal/usagetrace"
)

// EvaluateTimingAll evaluates every given timing-neutral scheme kind
// against one captured timing, returning one Result per kind in order.
// Each Result is bit-identical to a direct run of that scheme; the trace
// is decoded at most once and scanned at most once however many schemes
// ride the evaluation.
func (s *Simulator) EvaluateTimingAll(t *Timing, kinds []SchemeKind) ([]*Result, error) {
	schemes, err := s.replaySchemes(kinds)
	if err != nil {
		return nil, err
	}
	return s.EvaluateTimingSchemes(t, schemes)
}

// replaySchemes instantiates the given kinds for replay, refusing any
// kind that changes timing.
func (s *Simulator) replaySchemes(kinds []SchemeKind) ([]gating.Scheme, error) {
	schemes := make([]gating.Scheme, len(kinds))
	for i, k := range kinds {
		if !TimingNeutral(k) {
			return nil, fmt.Errorf("core: scheme %v changes timing and cannot be evaluated by replay", k)
		}
		sc, err := s.makeScheme(k)
		if err != nil {
			return nil, err
		}
		schemes[i] = sc
	}
	return schemes, nil
}

// EvaluateTimingSchemes is EvaluateTimingAll with caller-provided scheme
// instances (partial-DCG ablations). Every scheme must be timing-neutral
// — fresh, never throttling, deriving state only from the events and
// usage vectors it is fed.
//
// Each packed-capable scheme is evaluated by the packed kernel, then the
// rest share one fused scalar pass, all on the calling goroutine. A
// simulator carrying Telemetry is refused: the recorder observes one
// scheme's live pass, which a replay does not have.
func (s *Simulator) EvaluateTimingSchemes(t *Timing, schemes []gating.Scheme) ([]*Result, error) {
	if t == nil || t.Trace == nil {
		return nil, fmt.Errorf("core: evaluation requires a captured timing trace")
	}
	if s.Telemetry != nil {
		return nil, fmt.Errorf("core: telemetry requires a live pass; replay cannot feed it")
	}
	if len(schemes) == 0 {
		return nil, nil
	}
	for _, scheme := range schemes {
		if err := checkTraceChannels(t, scheme); err != nil {
			return nil, err
		}
	}
	d, err := replayDecode(t)
	if err != nil {
		return nil, err
	}

	results := make([]*Result, len(schemes))
	var scalarIdx []int
	for i, scheme := range schemes {
		if s.DisablePackedReplay {
			scalarIdx = append(scalarIdx, i)
			continue
		}
		res, ok, err := s.packedResult(t, d, scheme)
		if err != nil {
			return nil, err
		}
		if !ok {
			packedFallbackCount.Add(1)
			scalarIdx = append(scalarIdx, i)
			continue
		}
		packedSchemeCount.Add(1)
		results[i] = res
	}
	if len(scalarIdx) > 0 {
		if err := s.evalScalarSubset(t, d, schemes, scalarIdx, results); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// replayDecode returns the timing's memoized columnar decode, checked
// against the timing pass's cycle count.
func replayDecode(t *Timing) (*usagetrace.Decoded, error) {
	d, err := t.Trace.Decode()
	if err != nil {
		return nil, err
	}
	if d.Cycles() != t.CPUStats.Cycles {
		return nil, fmt.Errorf("core: trace replays %d cycles but timing ran %d",
			d.Cycles(), t.CPUStats.Cycles)
	}
	return d, nil
}

// evalScalarSubset runs the fused scalar engine over the schemes
// selected by idx, writing each Result into results[i]. One power model
// + accountant lane per scheme: the lanes are fully independent
// (construction is deterministic, replay state is per-lane), so each
// lane integrates exactly the float sequence a direct run would.
func (s *Simulator) evalScalarSubset(t *Timing, d *usagetrace.Decoded, schemes []gating.Scheme, idx []int, results []*Result) error {
	models := make([]*power.Model, len(idx))
	accts := make([]*power.Accountant, len(idx))
	sinks := make([]usagetrace.Sink, len(idx))
	for j, i := range idx {
		scheme := schemes[i]
		model, err := power.NewModel(t.Machine)
		if err != nil {
			return err
		}
		acct := power.NewAccountant(model, scheme)
		acct.LeakageFrac = s.LeakageFrac
		models[j] = model
		accts[j] = acct
		sinks[j] = usagetrace.Sink{Issue: scheme, Cycle: acct}
	}

	usagetrace.ReplayAll(d, sinks...)

	for j, i := range idx {
		scheme := schemes[i]
		if err := accts[j].Validate(); err != nil {
			return fmt.Errorf("core: scheme %s: %w", scheme.Name(), err)
		}
		results[i] = resultFor(t, scheme, models[j], accts[j])
	}
	return nil
}
