package usagetrace

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"dcg/internal/cpu"
)

// TestCompactEventSize pins the compact event at no more than 20 bytes,
// against cpu.IssueEvent's 72.
func TestCompactEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 20 {
		t.Fatalf("compact event is %d bytes, want at most 20", n)
	}
}

// TestLoadInstallsDecode: ReadTrace decodes in its one walk and installs
// the result, so the trace's first Decode is a reuse, and the installed
// decode equals the lazy decode of the same capture, with and without
// the latchvalue channel and through gzip.
func TestLoadInstallsDecode(t *testing.T) {
	usageOnly, _, _ := synthCapture(t, 700, 5)
	for _, tc := range []struct {
		name string
		tr   *Trace
	}{
		{"usage", usageOnly},
		{"latchvalue", craftLatchValueTrace(t, 700, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.tr.Decode()
			if err != nil {
				t.Fatal(err)
			}
			var raw, gz bytes.Buffer
			if _, err := tc.tr.WriteTo(&raw); err != nil {
				t.Fatal(err)
			}
			if err := tc.tr.EncodeGzip(&gz); err != nil {
				t.Fatal(err)
			}
			for _, enc := range [][]byte{raw.Bytes(), gz.Bytes()} {
				decodes, reuses := Decodes(), DecodeReuses()
				tr, err := ReadTrace(bytes.NewReader(enc))
				if err != nil {
					t.Fatal(err)
				}
				got, err := tr.Decode()
				if err != nil {
					t.Fatal(err)
				}
				if d, r := Decodes()-decodes, DecodeReuses()-reuses; d != 1 || r != 1 {
					t.Fatalf("load + Decode counted %d decodes and %d reuses, want 1 and 1", d, r)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("decode installed by ReadTrace differs from the lazy decode")
				}
			}
		})
	}
}

// craftLatchValueTrace records a trace of n cycles carrying the
// latchvalue channel, with events and every usage column varying.
func craftLatchValueTrace(t *testing.T, n, stages int) *Trace {
	t.Helper()
	rec, err := NewRecorder("lv", stages, ChannelLatchValue)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < n; c++ {
		if c%3 == 0 {
			rec.OnIssue(cpu.IssueEvent{
				Cycle: uint64(c), FUIdx: c % 4, FUType: cpu.FUType(c % int(cpu.NumFUTypes)),
				FUStart: uint64(c + 2), FULat: 1 + c%5,
				IsLoad: c%2 == 0, DPortCycle: uint64(c + 3),
				WritesReg: true, ResultBusCycle: uint64(c + 4),
			})
		}
		u := cpu.Usage{
			Cycle: uint64(c), IssueCount: c % 4, CommitCount: c % 3,
			IntALUBusy: uint32(c) & 0xf, DPortUsed: c % 2, ResultBus: c % 3,
			FetchCount: c % 5, WindowOccupancy: c % 40,
			BackLatch: make([]int, stages), BackLatchNewVal: make([]int, stages),
		}
		for s := 0; s < stages; s++ {
			u.BackLatch[s] = (c + s) % 4
			u.BackLatchNewVal[s] = (c + s) % 3
		}
		rec.OnCycle(&u)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestInflateCapRefusesWithoutLargeAllocation: a small gzip stream that
// inflates far past the size cap is refused with ErrTooLarge, and the
// refusal allocates about the cap, not the inflated size its ISIZE
// trailer claims.
func TestInflateCapRefusesWithoutLargeAllocation(t *testing.T) {
	const inflated = 16 << 20
	bomb := gzipped(make([]byte, inflated))
	if len(bomb) > inflated/100 {
		t.Fatalf("test stream is %d bytes compressed, want a small one", len(bomb))
	}
	old := maxTraceBytes
	maxTraceBytes = 64 << 10
	defer func() { maxTraceBytes = old }()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTrace(bytes.NewReader(bomb))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("refusing the stream allocated %d bytes, want well under the %d it inflates to", alloc, inflated)
	}
}
