package usagetrace

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
	"unsafe"

	"dcg/internal/cpu"
)

// Decoded is a trace decoded exactly once into columnar
// (struct-of-arrays) form: one flat slice per usage field, indexed by
// cycle, plus a flattened stream of compact issue events with per-cycle
// offsets. Replaying from it costs slice reads instead of varint
// decoding, and a Decoded is immutable after construction, so one decode
// can serve any number of concurrent replays — the packed kernel and
// the fused scalar engine under every replay evaluation
// (core.Simulator.EvaluateTimingAll, simrun batch and sweep replays).
type Decoded struct {
	name   string
	stages int
	cycles uint64

	// Usage columns (index == cycle).
	issue, fpIssue, memIssue       []int32
	intALU, intMult, fpALU, fpMult []uint32
	dport, resultBus               []int32
	commit, fetchN, occ            []int32

	// backLatch holds the per-stage latch flow row-major:
	// cycle c, stage s at backLatch[c*stages+s].
	backLatch []int32

	// channels is the trace's channel table (usage first);
	// backLatchNewVal is the latchvalue channel's column, row-major like
	// backLatch, and nil when the trace does not carry that channel.
	channels        []string
	backLatchNewVal []int32

	// events is every issue event in capture order; cycle c's events are
	// events[evOff[c]:evOff[c+1]].
	events []event
	evOff  []uint32

	// packed is the bit-packed columnar view (one uint64 word per 64
	// cycles per signal), built by the same walk. Never nil on a
	// successfully decoded trace.
	packed *Packed
}

// Column preallocation is bounded: the cycle count that sizes it is read
// from the trace's end marker, which is untrusted input, and an absurd
// value must not translate into a multi-GB make() before a single record
// is read. Real giants still decode — append growth takes over past the
// cap.
const maxPreallocCycles = 1 << 22

// maxDecodedEvents bounds the flattened issue-event stream. evOff entries
// are uint32 offsets into it, so len(events) must stay strictly below
// 2^32-1: at exactly ^uint32(0) the offset becomes ambiguous with the
// maximum encodable value. A var (not const) so the decode-error tests
// can lower it and exercise the boundary without a 4-billion-event trace.
var maxDecodedEvents = uint64(^uint32(0))

// Package-wide fused-replay accounting, exported for the service's
// /metrics endpoint and the decode-count regression tests. Monotonic
// process-lifetime counters.
var (
	decodeCount      atomic.Uint64
	decodeReuseCount atomic.Uint64
	fusedSchemeCount atomic.Uint64
)

// Decodes returns how many full columnar trace decodes have run
// process-wide (each Trace pays at most one).
func Decodes() uint64 { return decodeCount.Load() }

// DecodeReuses returns how many Trace.Decode calls were served by an
// already-memoized decode instead of re-reading the encoded stream.
func DecodeReuses() uint64 { return decodeReuseCount.Load() }

// FusedSchemes returns how many scheme sinks have been fed by fused
// replay passes (ReplayAll adds one per sink per pass).
func FusedSchemes() uint64 { return fusedSchemeCount.Load() }

// Name returns the traced workload's name.
func (d *Decoded) Name() string { return d.name }

// BackLatchStages returns the machine's gatable back-end latch stage count.
func (d *Decoded) BackLatchStages() int { return d.stages }

// Channels returns the decoded trace's channel table, usage first.
func (d *Decoded) Channels() []string { return d.channels }

// HasChannel reports whether the decoded trace carries the named channel.
func (d *Decoded) HasChannel(name string) bool {
	for _, ch := range d.channels {
		if ch == name {
			return true
		}
	}
	return false
}

// Cycles returns the decoded cycle count.
func (d *Decoded) Cycles() uint64 { return d.cycles }

// Events returns the total decoded issue-event count.
func (d *Decoded) Events() int { return len(d.events) }

// eventChunk is how many events the load walk collects in one buffer
// before it starts the next. The event count is unknown until the end
// marker, so the walk fills fixed-size chunks and copies them once into
// an exactly sized slice at the end. A new chunk starts once fewer than
// eventChunkSlack slots are left, so a record's events regrow a chunk
// only when there are more of them than that.
const (
	eventChunk      = 1 << 13
	eventChunkSlack = 256
)

// decodeTrace is the load walk: one pass over a raw encoding that
// validates every record (recordParser) and, as each record is parsed,
// appends it to the columns and the compact event stream and adds it to
// the packed planes. The columns are presized from the end marker's
// declared cycle count (cyclesHint); the parser checks that count
// against the records it reads when it reaches the marker.
func decodeTrace(data []byte) (*Decoded, error) {
	h, off, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	n := cyclesHint(data[off:], h.stages)
	stages := h.stages
	d := &Decoded{
		name:      h.name,
		stages:    stages,
		channels:  h.channels,
		issue:     make([]int32, 0, n),
		fpIssue:   make([]int32, 0, n),
		memIssue:  make([]int32, 0, n),
		intALU:    make([]uint32, 0, n),
		intMult:   make([]uint32, 0, n),
		fpALU:     make([]uint32, 0, n),
		fpMult:    make([]uint32, 0, n),
		dport:     make([]int32, 0, n),
		resultBus: make([]int32, 0, n),
		commit:    make([]int32, 0, n),
		fetchN:    make([]int32, 0, n),
		occ:       make([]int32, 0, n),
		backLatch: make([]int32, 0, (n+1)*stages), // a row for the end marker's parse too
		evOff:     make([]uint32, 1, n+1),
	}
	if h.hasLatchValue {
		d.backLatchNewVal = make([]int32, 0, (n+1)*stages)
	}
	p := recordParser{
		cursor:        cursor{data: data, off: off},
		stages:        stages,
		hasLatchValue: h.hasLatchValue,
	}
	pk := newPacker(stages, h.hasLatchValue, n)

	var chunks [][]event // full chunks; evs is the one being filled
	evs := make([]event, 0, eventChunk)
	var total uint64 // events in chunks
	var rec record
	var latch, newVal []int32
	for {
		if cap(evs)-len(evs) < eventChunkSlack {
			chunks = append(chunks, evs)
			total += uint64(len(evs))
			evs = make([]event, 0, eventChunk)
		}
		c, first := p.cycle, len(evs)
		// Parse the latch counts straight into a new row of the columns.
		d.backLatch, latch = growRow(d.backLatch, stages)
		if h.hasLatchValue {
			d.backLatchNewVal, newVal = growRow(d.backLatchNewVal, stages)
		}
		evs, err = p.next(evs, &rec, latch, newVal)
		if err == io.EOF {
			d.backLatch = d.backLatch[:len(d.backLatch)-stages]
			if h.hasLatchValue {
				d.backLatchNewVal = d.backLatchNewVal[:len(d.backLatchNewVal)-stages]
			}
			break
		}
		if err != nil {
			return nil, err
		}
		seen := total + uint64(len(evs))
		if seen >= maxDecodedEvents {
			return nil, fmt.Errorf("usagetrace: trace has %d issue events (limit %d)",
				seen, maxDecodedEvents-1)
		}
		d.evOff = append(d.evOff, uint32(seen))
		d.issue = append(d.issue, rec.issue)
		d.fpIssue = append(d.fpIssue, rec.fpIssue)
		d.memIssue = append(d.memIssue, rec.memIssue)
		d.intALU = append(d.intALU, rec.intALU)
		d.intMult = append(d.intMult, rec.intMult)
		d.fpALU = append(d.fpALU, rec.fpALU)
		d.fpMult = append(d.fpMult, rec.fpMult)
		d.dport = append(d.dport, rec.dport)
		d.resultBus = append(d.resultBus, rec.resultBus)
		d.commit = append(d.commit, rec.commit)
		d.fetchN = append(d.fetchN, rec.fetch)
		d.occ = append(d.occ, rec.occ)
		pk.addCycle(c, evs[first:], &rec, latch, newVal)
	}
	d.cycles = p.cycle
	d.events = make([]event, 0, total+uint64(len(evs)))
	for _, ch := range chunks {
		d.events = append(d.events, ch...)
	}
	d.events = append(d.events, evs...)
	d.packed = pk.finish(d)
	return d, nil
}

// growRow extends a row-major column by one row of n values and returns
// the column and the new row. Within capacity it only reslices, without
// zeroing: the parser writes every value of the row before the row
// counts.
func growRow(col []int32, n int) ([]int32, []int32) {
	if len(col)+n <= cap(col) {
		col = col[:len(col)+n]
	} else {
		col = append(col, make([]int32, n)...)
	}
	return col, col[len(col)-n:]
}

// cyclesHint reads the end marker's declared cycle count backwards from
// the tail of the records, for presizing the columns. The encoding ends
// with tagEnd and a uvarint, whose last byte has the high bit clear and
// whose earlier bytes have it set. The value is untrusted, so it is
// capped at maxPreallocCycles and at the records a stream of this size
// could hold (each takes at least 14+stages bytes: tag, event count,
// eleven usage fields, occupancy delta and one byte per stage); a
// stream without a readable marker gets no presizing.
func cyclesHint(records []byte, stages int) int {
	end := len(records) - 1
	if end < 1 || records[end]&0x80 != 0 {
		return 0
	}
	start := end
	for start > 0 && records[start-1]&0x80 != 0 && end-start < binary.MaxVarintLen64 {
		start--
	}
	if start == 0 || records[start-1] != tagEnd {
		return 0
	}
	declared, n := binary.Uvarint(records[start:])
	if n <= 0 {
		return 0
	}
	limit := uint64(len(records) / (14 + stages))
	return int(min(declared, limit, maxPreallocCycles))
}

// SizeBytes returns the memory the decode retains: the columns, the
// compact event stream and its offsets at their allocated capacity, plus
// the packed planes.
func (d *Decoded) SizeBytes() int {
	n := 4 * (cap(d.issue) + cap(d.fpIssue) + cap(d.memIssue) +
		cap(d.intALU) + cap(d.intMult) + cap(d.fpALU) + cap(d.fpMult) +
		cap(d.dport) + cap(d.resultBus) + cap(d.commit) + cap(d.fetchN) + cap(d.occ) +
		cap(d.backLatch) + cap(d.backLatchNewVal) + cap(d.evOff))
	n += int(unsafe.Sizeof(event{})) * cap(d.events)
	if d.packed != nil {
		for _, pl := range d.packed.planes() {
			n += 8 * cap(*pl)
		}
	}
	return n
}

// Packed returns the bit-packed columnar view built alongside the scalar
// columns. Immutable, like the Decoded that owns it.
func (d *Decoded) Packed() *Packed { return d.packed }

// fillUsage reconstructs cycle c's usage vector into the caller's
// scratch. u.BackLatch must already have length stages.
func (d *Decoded) fillUsage(u *cpu.Usage, c uint64) {
	u.Cycle = c
	u.IssueCount = int(d.issue[c])
	u.FPIssueCount = int(d.fpIssue[c])
	u.MemIssueCount = int(d.memIssue[c])
	u.IntALUBusy = d.intALU[c]
	u.IntMultBusy = d.intMult[c]
	u.FPALUBusy = d.fpALU[c]
	u.FPMultBusy = d.fpMult[c]
	u.DPortUsed = int(d.dport[c])
	u.ResultBus = int(d.resultBus[c])
	u.CommitCount = int(d.commit[c])
	u.FetchCount = int(d.fetchN[c])
	u.WindowOccupancy = int(d.occ[c])
	base := int(c) * d.stages
	for s := 0; s < d.stages; s++ {
		u.BackLatch[s] = int(d.backLatch[base+s])
	}
	if d.backLatchNewVal != nil {
		for s := 0; s < d.stages; s++ {
			u.BackLatchNewVal[s] = int(d.backLatchNewVal[base+s])
		}
	}
}

// Sink is one consumer of a fused replay: a scheme's issue listener plus
// its per-cycle observer chain. Either half may be nil.
type Sink struct {
	Issue cpu.IssueListener
	Cycle cpu.Observer
}

// ReplayAll replays the decoded trace through every sink in a single
// pass. Each sink observes exactly the sequence the live core delivers
// — cycle c's issue events strictly before cycle c's usage vector — so
// per-sink results are bit-identical to one-at-a-time runs; the fusion
// only shares the decode, the rebuild of each
// cycle's issue events from their compact form, and the per-cycle usage
// reconstruction across sinks. The usage vector passed to OnCycle is
// reused between cycles (the live core's contract); sinks must not
// retain it. Safe to call concurrently on one Decoded.
func ReplayAll(d *Decoded, sinks ...Sink) uint64 {
	fusedSchemeCount.Add(uint64(len(sinks)))
	var u cpu.Usage
	u.BackLatch = make([]int, d.stages)
	if d.backLatchNewVal != nil {
		u.BackLatchNewVal = make([]int, d.stages)
	}
	var events []cpu.IssueEvent
	for c := uint64(0); c < d.cycles; c++ {
		events = events[:0]
		for i := d.evOff[c]; i < d.evOff[c+1]; i++ {
			events = append(events, d.events[i].expand(c))
		}
		for _, s := range sinks {
			if s.Issue == nil {
				continue
			}
			for i := range events {
				s.Issue.OnIssue(events[i])
			}
		}
		d.fillUsage(&u, c)
		for _, s := range sinks {
			if s.Cycle != nil {
				s.Cycle.OnCycle(&u)
			}
		}
	}
	return d.cycles
}
