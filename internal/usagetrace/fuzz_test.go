package usagetrace

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"dcg/internal/cpu"
)

// cycleLog records what a replay delivers, cycle by cycle: the issue
// events and a deep copy of the usage vector.
type cycleLog struct {
	pending []cpu.IssueEvent
	cycles  []loggedCycle
}

type loggedCycle struct {
	events []cpu.IssueEvent
	usage  cpu.Usage
}

func (l *cycleLog) OnIssue(ev cpu.IssueEvent) { l.pending = append(l.pending, ev) }

func (l *cycleLog) OnCycle(u *cpu.Usage) {
	c := loggedCycle{events: l.pending, usage: *u}
	c.usage.BackLatch = append([]int(nil), u.BackLatch...)
	if u.BackLatchNewVal != nil {
		c.usage.BackLatchNewVal = append([]int(nil), u.BackLatchNewVal...)
	}
	l.cycles = append(l.cycles, c)
	l.pending = nil
}

// FuzzReadTrace feeds arbitrary bytes to the trace loader. The seed
// corpus (testdata/fuzz/FuzzReadTrace) holds tiny v1 and v2 captures, a
// latchvalue capture, a gzip one, and every mutation of
// TestDecodeErrorPaths. Three properties hold for every input:
//
//   - loading never panics;
//   - an accepted trace delivers the same events and usage, cycle for
//     cycle, through ReplayAll over its decode as through Reader.Next;
//   - re-encoding an accepted trace with a Recorder decodes back to an
//     equal Decoded.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		d, err := tr.Decode()
		if err != nil {
			t.Fatalf("accepted trace failed its decode: %v", err)
		}

		var fromDecode cycleLog
		ReplayAll(d, Sink{Issue: &fromDecode, Cycle: &fromDecode})
		var fromReader cycleLog
		rd, err := tr.Reader()
		if err != nil {
			t.Fatalf("accepted trace refused by Reader: %v", err)
		}
		for {
			events, u, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("accepted trace fails Reader.Next: %v", err)
			}
			for _, ev := range events {
				fromReader.OnIssue(ev)
			}
			fromReader.OnCycle(u)
		}
		if !reflect.DeepEqual(fromDecode.cycles, fromReader.cycles) {
			t.Fatal("ReplayAll and Reader.Next deliver different cycles")
		}

		rec, err := NewRecorder(d.Name(), d.BackLatchStages(), d.Channels()[1:]...)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		ReplayAll(d, Sink{Issue: rec, Cycle: rec})
		again, err := rec.Trace()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		d2, err := again.Decode()
		if err != nil {
			t.Fatalf("re-encoded trace fails to decode: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatal("re-encoded trace decodes differently")
		}
	})
}
