package usagetrace

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"dcg/internal/cpu"
)

// synthCapture generates a deterministic pseudo-random capture and
// returns both the recorded trace and the expected cycle contents.
func synthCapture(t *testing.T, cycles int, stages int) (*Trace, [][]cpu.IssueEvent, []cpu.Usage) {
	t.Helper()
	rec, err := NewRecorder("synevery", stages)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	events := make([][]cpu.IssueEvent, cycles)
	usages := make([]cpu.Usage, cycles)
	occ := 0
	for c := 0; c < cycles; c++ {
		nev := rng.Intn(4)
		for i := 0; i < nev; i++ {
			ev := cpu.IssueEvent{Cycle: uint64(c), FUIdx: -1}
			switch rng.Intn(3) {
			case 0:
				ev.FUType = cpu.FUType(rng.Intn(int(cpu.NumFUTypes)))
				ev.FUIdx = rng.Intn(8)
				ev.FUStart = uint64(c) + 2
				ev.FULat = 1 + rng.Intn(20)
				ev.WritesReg = true
				ev.ResultBusCycle = ev.FUStart + uint64(ev.FULat)
			case 1:
				ev.IsLoad = true
				ev.DPortCycle = uint64(c) + 3
				ev.WritesReg = true
				ev.ResultBusCycle = ev.DPortCycle + uint64(1+rng.Intn(100))
			default:
				ev.IsStore = true
				ev.DPortCycle = uint64(c) + 4
			}
			events[c] = append(events[c], ev)
			rec.OnIssue(ev)
		}
		occ += rng.Intn(9) - 4
		if occ < 0 {
			occ = 0
		}
		u := cpu.Usage{
			Cycle:           uint64(c),
			IssueCount:      rng.Intn(9),
			FPIssueCount:    rng.Intn(4),
			MemIssueCount:   rng.Intn(4),
			IntALUBusy:      uint32(rng.Intn(256)),
			IntMultBusy:     uint32(rng.Intn(4)),
			FPALUBusy:       uint32(rng.Intn(16)),
			FPMultBusy:      uint32(rng.Intn(2)),
			DPortUsed:       rng.Intn(5),
			ResultBus:       rng.Intn(9),
			CommitCount:     rng.Intn(9),
			FetchCount:      rng.Intn(9),
			WindowOccupancy: occ,
			BackLatch:       make([]int, stages),
		}
		for s := range u.BackLatch {
			u.BackLatch[s] = rng.Intn(9)
		}
		usages[c] = u
		rec.OnCycle(&u)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr, events, usages
}

func TestRoundTrip(t *testing.T) {
	const cycles, stages = 500, 5
	tr, events, usages := synthCapture(t, cycles, stages)
	if tr.Cycles() != cycles {
		t.Fatalf("trace has %d cycles, want %d", tr.Cycles(), cycles)
	}
	if tr.Name() != "synevery" {
		t.Fatalf("trace name %q, want synevery", tr.Name())
	}
	rd, err := tr.Reader()
	if err != nil {
		t.Fatal(err)
	}
	if rd.BackLatchStages() != stages {
		t.Fatalf("reader reports %d stages, want %d", rd.BackLatchStages(), stages)
	}
	for c := 0; c < cycles; c++ {
		evs, u, err := rd.Next()
		if err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if len(evs) != len(events[c]) {
			t.Fatalf("cycle %d: %d events, want %d", c, len(evs), len(events[c]))
		}
		for i, ev := range evs {
			if ev != events[c][i] {
				t.Fatalf("cycle %d event %d: got %+v want %+v", c, i, ev, events[c][i])
			}
		}
		want := usages[c]
		if u.Cycle != want.Cycle || u.IssueCount != want.IssueCount ||
			u.FPIssueCount != want.FPIssueCount || u.MemIssueCount != want.MemIssueCount ||
			u.IntALUBusy != want.IntALUBusy || u.IntMultBusy != want.IntMultBusy ||
			u.FPALUBusy != want.FPALUBusy || u.FPMultBusy != want.FPMultBusy ||
			u.DPortUsed != want.DPortUsed || u.ResultBus != want.ResultBus ||
			u.CommitCount != want.CommitCount || u.FetchCount != want.FetchCount ||
			u.WindowOccupancy != want.WindowOccupancy {
			t.Fatalf("cycle %d usage: got %+v want %+v", c, *u, want)
		}
		for s := range want.BackLatch {
			if u.BackLatch[s] != want.BackLatch[s] {
				t.Fatalf("cycle %d latch stage %d: got %d want %d", c, s, u.BackLatch[s], want.BackLatch[s])
			}
		}
	}
	if _, _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after last cycle: err = %v, want io.EOF", err)
	}
}

func TestWriteToReadTraceRoundTrip(t *testing.T) {
	tr, _, _ := synthCapture(t, 200, 5)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cycles() != tr.Cycles() || back.BackLatchStages() != tr.BackLatchStages() || back.Name() != tr.Name() {
		t.Fatalf("reloaded trace metadata %q/%d/%d differs from original %q/%d/%d",
			back.Name(), back.Cycles(), back.BackLatchStages(),
			tr.Name(), tr.Cycles(), tr.BackLatchStages())
	}
}

func TestVersionMismatchFailsLoudly(t *testing.T) {
	tr, _, _ := synthCapture(t, 10, 5)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(traceMagic)]++ // bump the version byte
	_, err := ReadTrace(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-bumped trace: err = %v, want unsupported-version error", err)
	}
}

func TestBadMagicFailsLoudly(t *testing.T) {
	_, err := ReadTrace(strings.NewReader("NOPEnope not a trace"))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v, want bad-magic error", err)
	}
}

func TestTruncationFailsLoudly(t *testing.T) {
	tr, _, _ := synthCapture(t, 50, 5)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut at several points: mid-records and just before the end marker.
	for _, cut := range []int{len(full) / 3, len(full) / 2, len(full) - 2} {
		_, err := ReadTrace(bytes.NewReader(full[:cut]))
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("cut at %d/%d: err = %v, want truncation error", cut, len(full), err)
		}
	}
}

func TestTrailingDataFailsLoudly(t *testing.T) {
	tr, _, _ := synthCapture(t, 10, 5)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0xff)
	_, err := ReadTrace(&buf)
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: err = %v, want trailing-data error", err)
	}
}

func TestReplayDeliversEventsBeforeUsage(t *testing.T) {
	tr, events, _ := synthCapture(t, 100, 5)
	d, err := tr.Decode()
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	lis := listenerFunc(func(ev cpu.IssueEvent) {
		order = append(order, "ev")
		_ = ev
	})
	obs := observerFunc(func(u *cpu.Usage) { order = append(order, "cycle") })
	if cycles := ReplayAll(d, Sink{Issue: lis, Cycle: obs}); cycles != 100 {
		t.Fatalf("replayed %d cycles, want 100", cycles)
	}
	// Reconstruct the expected interleaving: each cycle's events strictly
	// before its usage callback.
	var want []string
	for c := range events {
		for range events[c] {
			want = append(want, "ev")
		}
		want = append(want, "cycle")
	}
	if len(order) != len(want) {
		t.Fatalf("callback count %d, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("callback %d is %q, want %q", i, order[i], want[i])
		}
	}
}

type listenerFunc func(cpu.IssueEvent)

func (f listenerFunc) OnIssue(ev cpu.IssueEvent) { f(ev) }

type observerFunc func(*cpu.Usage)

func (f observerFunc) OnCycle(u *cpu.Usage) { f(u) }

func TestWriterRejectsNonContiguousCycles(t *testing.T) {
	rec, err := NewRecorder("x", 2)
	if err != nil {
		t.Fatal(err)
	}
	u := cpu.Usage{Cycle: 5, BackLatch: make([]int, 2)}
	rec.OnCycle(&u)
	if _, err := rec.Trace(); err == nil {
		t.Fatal("non-contiguous capture closed cleanly, want error")
	}
}

func TestWriterRejectsStageMismatch(t *testing.T) {
	rec, err := NewRecorder("x", 3)
	if err != nil {
		t.Fatal(err)
	}
	u := cpu.Usage{BackLatch: make([]int, 5)}
	rec.OnCycle(&u)
	if _, err := rec.Trace(); err == nil {
		t.Fatal("stage-mismatched capture closed cleanly, want error")
	}
}
