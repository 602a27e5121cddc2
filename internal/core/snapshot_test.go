package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// snapshotSim is the configuration the snapshot tests run: short enough
// for every built-in benchmark on two machines, long enough that the
// warm-up leaves live loops, calls and dirty lines behind.
func snapshotSim(machine string) *Simulator {
	m := DefaultMachine()
	if machine == "deep" {
		m = DeepMachine()
	}
	sim := NewSimulator(m)
	sim.Warmup = 10_000
	return sim
}

const snapshotInsts = 5_000

// TestSnapshotRunsMatchFreshRuns holds a run restored from a post-warm-up
// snapshot identical to one that warmed the machine itself, for every
// built-in benchmark on the base and deep machines: a DCG capture (the
// Result and the whole Timing, trace bytes included) and a PLB full run.
func TestSnapshotRunsMatchFreshRuns(t *testing.T) {
	ctx := context.Background()
	for _, machine := range []string{"base", "deep"} {
		sim := snapshotSim(machine)
		for _, bench := range Benchmarks() {
			snap, err := sim.WarmBenchmark(ctx, bench)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, wantTm, err := sim.RunAndCapture(ctx, bench, SchemeDCG, snapshotInsts)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, gotTm, err := sim.RunAndCaptureSnapshot(ctx, snap, SchemeDCG, snapshotInsts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRes, wantRes) || !reflect.DeepEqual(gotTm, wantTm) {
				t.Errorf("%s/%s: capture from a snapshot differs from a freshly warmed capture", machine, bench)
			}
			want, err := sim.RunBenchmarkContext(ctx, bench, SchemePLBExt, snapshotInsts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.RunSnapshot(ctx, snap, SchemePLBExt, snapshotInsts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: plb-ext run from a snapshot differs from a freshly warmed run", machine, bench)
			}
		}
	}
}

// cloneSnapshot deep-copies a snapshot, for checking that runs leave the
// original untouched.
func cloneSnapshot(sn *Snapshot) *Snapshot {
	c := *sn
	c.gen = sn.gen.Clone()
	c.hier, c.pred = sn.hier.Clone(), sn.pred.Clone()
	return &c
}

// TestSnapshotSharedByConcurrentRuns runs two captures from one snapshot
// at once (meaningful under -race): both equal, and the snapshot is
// unchanged afterwards.
func TestSnapshotSharedByConcurrentRuns(t *testing.T) {
	ctx := context.Background()
	sim := snapshotSim("base")
	snap, err := sim.WarmBenchmark(ctx, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	before := cloneSnapshot(snap)
	var wg sync.WaitGroup
	var res [2]*Result
	var tms [2]*Timing
	var errs [2]error
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], tms[i], errs[i] = sim.RunAndCaptureSnapshot(ctx, snap, SchemeDCG, snapshotInsts)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(res[0], res[1]) || !reflect.DeepEqual(tms[0], tms[1]) {
		t.Error("two concurrent runs from one snapshot differ")
	}
	if !reflect.DeepEqual(snap, before) {
		t.Error("runs modified the snapshot they started from")
	}
}

// TestSnapshotMachineMismatch refuses a snapshot taken for another
// machine or warm-up length.
func TestSnapshotMachineMismatch(t *testing.T) {
	ctx := context.Background()
	snap, err := snapshotSim("base").WarmBenchmark(ctx, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshotSim("deep").RunSnapshot(ctx, snap, SchemeDCG, 1000); err == nil {
		t.Error("a base-machine snapshot ran on the deep machine")
	}
	other := snapshotSim("base")
	other.Warmup = 1000
	if _, _, err := other.RunAndCaptureSnapshot(ctx, snap, SchemeDCG, 1000); err == nil {
		t.Error("a snapshot ran under another warm-up length")
	}
}

// TestWarmBenchmarkCanceled returns the context's error from a warm-up
// canceled before it finishes.
func TestWarmBenchmarkCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	snap, err := snapshotSim("base").WarmBenchmark(ctx, "gzip")
	if !errors.Is(err, context.Canceled) || snap != nil {
		t.Fatalf("canceled warm-up returned (%v, %v), want context.Canceled", snap, err)
	}
	if _, err := snapshotSim("base").RunBenchmarkContext(ctx, "gzip", SchemeDCG, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
}
