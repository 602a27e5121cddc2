package simrun

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"dcg/internal/core"
	"dcg/internal/obs"
)

// TestExecSharesOneWarmUpPerMachine drives the Figure 10 trio — a dcg
// capture and two PLB full runs — for one benchmark and machine through
// one Exec: one warm-up serves all three, and every answer equals the
// freshly warmed package-level Run.
func TestExecSharesOneWarmUpPerMachine(t *testing.T) {
	ctx := context.Background()
	e := NewExec(0, 0)
	for _, s := range []core.SchemeKind{core.SchemeDCG, core.SchemePLBOrig, core.SchemePLBExt} {
		k := Key{Bench: "gzip", Scheme: s, Insts: 10_000, Warmup: 20_000}
		got, _, err := e.Do(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result from a shared warm-up differs from a freshly warmed run", s)
		}
	}
	if st := e.WarmStats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("warm-up cache: %d warm-ups, %d reuses; want 1 and 2", st.Misses, st.Hits)
	}
	// Another machine is another warm-up.
	if _, _, err := e.Do(ctx, Key{Bench: "gzip", Scheme: core.SchemeDCG, Deep: true, Insts: 10_000, Warmup: 20_000}); err != nil {
		t.Fatal(err)
	}
	if st := e.WarmStats(); st.Misses != 2 {
		t.Errorf("deep machine reused the base machine's warm-up (%d warm-ups)", st.Misses)
	}
}

// TestWarmCacheBoundIsExact keeps no more snapshots than warmCacheEntries,
// however the keys hash.
func TestWarmCacheBoundIsExact(t *testing.T) {
	ctx := context.Background()
	e := NewExec(0, 0)
	for _, bench := range core.Benchmarks()[:warmCacheEntries+3] {
		if _, err := e.Full(ctx, Key{Bench: bench, Scheme: core.SchemePLBOrig, Insts: 1000, Warmup: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.WarmStats(); st.Resident != warmCacheEntries || st.Evictions != 3 {
		t.Errorf("resident %d, evicted %d; want %d and 3", st.Resident, st.Evictions, warmCacheEntries)
	}
}

// cancelAfter is a context whose Err turns to context.Canceled after a
// given number of polls, so a test can cancel a warm-up mid-way.
type cancelAfter struct {
	context.Context
	polls atomic.Int32
	after int32
}

func (c *cancelAfter) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestCanceledWarmUpIsNotCached cancels a warm-up part-way through: the
// run returns the context error, no snapshot is left behind, and the
// next request warms up afresh and answers correctly.
func TestCanceledWarmUpIsNotCached(t *testing.T) {
	e := NewExec(0, 0)
	k := Key{Bench: "mcf", Scheme: core.SchemeDCG, Insts: 5000, Warmup: 50_000}
	ctx := &cancelAfter{Context: context.Background(), after: 3}
	if _, _, err := e.Do(ctx, k); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled warm-up returned %v, want context.Canceled", err)
	}
	if polls := ctx.polls.Load(); polls <= 3 {
		t.Fatalf("cancellation landed after %d polls, not mid-way through the warm-up", polls)
	}
	if st := e.WarmStats(); st.Resident != 0 || st.Misses != 1 {
		t.Fatalf("after a canceled warm-up: %+v, want nothing resident", st)
	}
	got, _, err := e.Do(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("result after a canceled warm-up differs from a fresh run")
	}
	if st := e.WarmStats(); st.Resident != 1 || st.Misses != 2 {
		t.Errorf("retry did not warm up afresh: %+v", st)
	}
}

// TestSimSpansCarryWarmAttr marks each sim.capture and sim.full span with
// whether its warm-up was computed or reused.
func TestSimSpansCarryWarmAttr(t *testing.T) {
	tr := obs.NewTracer(64)
	ctx, root := tr.StartRoot(context.Background(), "test")
	e := NewExec(0, 0)
	for _, s := range []core.SchemeKind{core.SchemeDCG, core.SchemePLBOrig} {
		if _, _, err := e.Do(ctx, Key{Bench: "swim", Scheme: s, Insts: 2000, Warmup: 5000}); err != nil {
			t.Fatal(err)
		}
	}
	root.Finish()
	got := map[string]string{}
	for _, sp := range tr.Spans(obs.SpanFilter{}) {
		for _, a := range sp.Attrs {
			if a.Key == "warm" {
				got[sp.Name] = a.Value
			}
		}
	}
	want := map[string]string{"sim.capture": "computed", "sim.full": "reused"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("warm attributes %v, want %v", got, want)
	}
}
