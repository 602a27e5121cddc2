package core

// Cycle-sharded parallel replay: the packed kernel's word-range work is
// data-parallel (gating.PackedPlan), so one evaluation spreads every
// packed-capable scheme's shards across a single worker pool while any
// scalar-fallback schemes in the same request run their fused replay
// pass concurrently on their own goroutine. Shard merges are
// commutative-addition only, so results are bit-identical to the serial
// kernel for every worker count (golden-tested across 1/2/4/7 workers).

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dcg/internal/gating"
	"dcg/internal/par"
	"dcg/internal/power"
)

// replayPar is the process-wide default replay worker count; <= 0 means
// runtime.GOMAXPROCS at evaluation time.
var replayPar atomic.Int64

// SetReplayParallelism sets the process-wide replay worker default (the
// -replay-par flag): how many shards each packed evaluation splits into
// and how many goroutines serve them. n <= 0 restores the default
// (runtime.GOMAXPROCS); n == 1 forces the serial kernel everywhere.
func SetReplayParallelism(n int) { replayPar.Store(int64(n)) }

// ReplayParallelism returns the resolved process-wide replay worker
// count.
func ReplayParallelism() int {
	if n := int(replayPar.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// replayShardCount counts word-range shard tasks executed by the packed
// engine (one per scheme per evaluation at 1 worker), exported for the
// service's /metrics endpoint.
var replayShardCount atomic.Uint64

// ReplayShardsExecuted returns how many packed-replay shard tasks have
// run process-wide.
func ReplayShardsExecuted() uint64 { return replayShardCount.Load() }

// replayWorkers resolves this simulator's worker count: the per-instance
// override when set, the process default otherwise.
func (s *Simulator) replayWorkers() int {
	if s.ReplayWorkers > 0 {
		return s.ReplayWorkers
	}
	return ReplayParallelism()
}

// shardPool recycles the scheme×shard result grids so steady-state
// parallel evaluations allocate no per-request shard scratch. (The
// 1-worker path never touches it: it finishes each plan's single full
// shard inline.)
var shardPool = sync.Pool{New: func() any { return new([]gating.PackedShard) }}

// runPackedPlans evaluates the planned schemes selected by idx across a
// scheme×shard work pool and writes each finished Result into
// results[i]. plans[i] must be valid for every i in idx. Shards within
// a scheme merge in fixed (shard-index) order; every merged quantity is
// either an integer or an exactness-guarded float, so the outcome is
// identical for any worker count.
func (s *Simulator) runPackedPlans(t *Timing, schemes []gating.Scheme, idx []int, plans []gating.PackedPlan, results []*Result) error {
	nsch := len(idx)
	if nsch == 0 {
		return nil
	}
	workers := s.replayWorkers()
	if workers <= 1 {
		// Serial kernel, exactly as before sharding existed: one full-range
		// shard per scheme, finished inline.
		for _, i := range idx {
			pl := &plans[i]
			tally, lead := pl.Finish(pl.Shard(0, pl.Words()))
			res, err := s.packedResult(t, schemes[i], tally, lead)
			if err != nil {
				return err
			}
			results[i] = res
		}
		replayShardCount.Add(uint64(nsch))
		packedSchemeCount.Add(uint64(nsch))
		return nil
	}

	// Scheme×shard grid: every (scheme, word-range) pair is one pool
	// task, so small scheme sets still spread across all workers. Ranges
	// may be empty when shards exceed words — Shard returns the zero
	// contribution for those.
	shards := workers
	bufp := shardPool.Get().(*[]gating.PackedShard)
	need := nsch * shards
	if cap(*bufp) < need {
		*bufp = make([]gating.PackedShard, need)
	}
	buf := (*bufp)[:need]
	par.Do(workers, need, func(task int) {
		j, k := task/shards, task%shards
		pl := &plans[idx[j]]
		words := pl.Words()
		buf[task] = pl.Shard(k*words/shards, (k+1)*words/shards)
	})
	replayShardCount.Add(uint64(need))

	var firstErr error
	for j, i := range idx {
		pl := &plans[i]
		var total gating.PackedShard
		for k := 0; k < shards; k++ {
			total.Add(buf[j*shards+k])
		}
		tally, lead := pl.Finish(total)
		res, err := s.packedResult(t, schemes[i], tally, lead)
		if err != nil {
			firstErr = err
			break
		}
		results[i] = res
	}
	shardPool.Put(bufp)
	if firstErr != nil {
		return firstErr
	}
	packedSchemeCount.Add(uint64(nsch))
	return nil
}

// packedResult turns a packed-kernel tally into the scheme's Result —
// the same model/accountant construction the scalar engine performs,
// with the kernel's tally installed in place of a replayed one.
func (s *Simulator) packedResult(t *Timing, scheme gating.Scheme, tally power.Tally, lead uint64) (*Result, error) {
	model, err := power.NewModel(t.Machine)
	if err != nil {
		return nil, err
	}
	acct := power.NewAccountant(model, scheme)
	acct.LeakageFrac = s.LeakageFrac
	acct.Tally = tally
	if err := acct.Validate(); err != nil {
		return nil, fmt.Errorf("core: scheme %s: %w", scheme.Name(), err)
	}
	res := resultFor(t, scheme, model, acct)
	// The scheme instance was never fed, so resultFor's type switch
	// read zero lead violations; install the packed kernel's count.
	res.LeadViolations = lead
	return res, nil
}
