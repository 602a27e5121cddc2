// Package usagetrace captures the timing pass of a simulation — the
// per-cycle cpu.Usage vectors plus the issue-stage GRANT events — in a
// compact binary stream, so gating and power evaluation can replay the
// execution without re-simulating the core.
//
// The paper's schemes are deterministic and timing-neutral: the baseline,
// DCG (and every DCG ablation), and the Oracle headroom scheme never
// change when instructions issue, so they all see byte-identical usage
// and event streams. Capturing that stream once per (workload,
// machine-timing) turns every additional scheme evaluation into a
// memory-bandwidth replay (internal/core.Simulator.EvaluateTiming).
//
// # Format (v2, channelized)
//
// A trace is a set of named channels: per-cycle data families that
// schemes consume independently. The "usage" channel is the classic
// usage-vector + issue-event stream every scheme needs; the optional
// "latchvalue" channel carries the per-stage value-change counts
// (cpu.Usage.BackLatchNewVal) that data-dependent gating schemes (ddcg)
// compare latch inputs against outputs with. The stream is a header
// (with a per-channel table) followed by one record per cycle and a
// terminating end marker. All integers are unsigned varints
// (encoding/binary) unless noted; cycle numbers are implicit (record
// index == cycle, measured regions always start at cycle 0).
//
//	header:  "DCGU" | version byte (2) | name length byte | name |
//	         uvarint channelCount |
//	         per channel: name length byte | channel name | uvarint stages
//	cycle:   0x01 tag | uvarint eventCount | events... | usage |
//	         extra-channel payloads in header order
//	event:   flags byte (bit0 hasFU, bit1 isLoad, bit2 isStore,
//	         bit3 writesReg, bits4-5 FUType) |
//	         [hasFU: uvarint fuIdx, fuStart-cycle, fuLat] |
//	         [isLoad|isStore: uvarint dportCycle-cycle] |
//	         [writesReg: uvarint resultBusCycle-cycle]
//	usage:   uvarint issue, fpIssue, memIssue, intALUBusy, intMultBusy,
//	         fpALUBusy, fpMultBusy, dportUsed, resultBus, commit, fetch |
//	         zigzag varint windowOccupancy delta | uvarint backLatch[stage]...
//	latchvalue: uvarint backLatchNewVal[stage]...
//	end:     0x00 tag | uvarint total cycle count
//
// The "usage" channel is always present and always first in the table;
// its stages parameter is the machine's gatable back-end latch stage
// count. A usage-only v2 trace has a cycle-record body byte-identical
// to v1's, so old replay arithmetic is untouched by the version bump.
//
// Version 1 streams — header "DCGU" | 1 | nameLen | name | uvarint
// backLatchStages, no channel table, usage-only records — are still
// accepted by the reader, so trace artifacts persisted before the v2
// bump keep decoding bit-identically. The writer always emits v2.
//
// Event timing fields are stored as deltas from the event's select cycle
// (they always lie a small, bounded distance in the future — that is the
// paper's determinism property), and window occupancy as a signed delta
// from the previous cycle, so typical cycles encode in a few bytes. The
// end marker carries the cycle count so a truncated or corrupt stream
// fails loudly instead of reading as a shorter run.
package usagetrace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"dcg/internal/cpu"
)

// Pooled gzip codecs and encode scratch: a sweep runs thousands of
// captures and (store-warm) trace loads, and a fresh inflater or a
// regrown encode buffer per use showed up as steady allocation churn.
// The pools hand grown buffers from one capture/load to the next.
var (
	gzipReaderPool sync.Pool
	gzipWriterPool = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}
	scratchPool    = sync.Pool{New: func() any { return &encodeScratch{buf: make([]byte, 0, 256)} }}
)

// encodeScratch is a Writer's reusable encode state: the record build
// buffer appendEvent/OnCycle encode into, and the pending issue-event
// buffer. Handed back to scratchPool by Close.
type encodeScratch struct {
	buf     []byte
	pending []cpu.IssueEvent
}

// pooledGzipReader resets a pooled inflater onto r (or builds the pool's
// first one). Callers must hand the reader back with putGzipReader.
func pooledGzipReader(r io.Reader) (*gzip.Reader, error) {
	if gz, ok := gzipReaderPool.Get().(*gzip.Reader); ok {
		if err := gz.Reset(r); err != nil {
			gzipReaderPool.Put(gz)
			return nil, err
		}
		return gz, nil
	}
	return gzip.NewReader(r)
}

func putGzipReader(gz *gzip.Reader) { gzipReaderPool.Put(gz) }

const (
	traceMagic    = "DCGU"
	traceVersion  = 2
	traceVersion1 = 1

	tagCycle = 0x01
	tagEnd   = 0x00

	flagHasFU     = 1 << 0
	flagIsLoad    = 1 << 1
	flagIsStore   = 1 << 2
	flagWritesReg = 1 << 3
	fuTypeShift   = 4

	// RFC 1952 gzip member header magic, sniffed by the decoders so a
	// compressed trace (EncodeGzip, or a .gz file handed to -replay
	// tooling) decodes transparently.
	gzipMagic0 = 0x1f
	gzipMagic1 = 0x8b

	// maxLatchStages bounds the header's back-end latch stage count. The
	// value is untrusted input sized per cycle record and per reader
	// buffer, and a machine has a few latch stages, not thousands — a
	// larger count is corruption, refused before it sizes any allocation.
	maxLatchStages = 4096

	// maxTraceChannels bounds the v2 header's channel table. The registry
	// defines a handful of channel names; a larger count is corruption.
	maxTraceChannels = 8
)

// Channel names. The usage channel is mandatory and always first; extra
// channels are appended in table order to every cycle record.
const (
	// ChannelUsage is the per-cycle usage vector plus issue events —
	// the original v1 payload, implicit in every trace.
	ChannelUsage = "usage"

	// ChannelLatchValue is the per-stage value-change counts
	// (cpu.Usage.BackLatchNewVal): how many latch slots of each back-end
	// stage carried a value different from the slot's previous one.
	// Data-dependent gating schemes (ddcg) require it.
	ChannelLatchValue = "latchvalue"
)

// KnownChannels lists every channel name the codec understands, usage
// first. A header naming any other channel fails the decode loudly.
func KnownChannels() []string { return []string{ChannelUsage, ChannelLatchValue} }

// validExtraChannel reports whether name is a known non-usage channel.
func validExtraChannel(name string) bool { return name == ChannelLatchValue }

// Writer serialises a capture stream. It implements cpu.Observer and
// cpu.IssueListener, so a capturing run installs it (via the cpu fan-out
// types) next to the power accountant and the gating scheme: issue events
// are buffered as they fire and flushed into the cycle's record when the
// usage vector arrives, preserving the core's events-then-usage delivery
// order for replay.
//
// Errors from the underlying writer are latched; Close (or Err) surfaces
// the first one.
type Writer struct {
	w        *bufio.Writer
	name     string
	stages   int
	channels []string // full channel list, usage first

	hasLatchValue bool

	pending []cpu.IssueEvent
	scratch []byte
	sc      *encodeScratch // pool token backing pending/scratch
	cycles  uint64
	lastOcc int64

	err    error
	closed bool
}

// NewWriter writes the v2 header for a trace of the named workload on a
// machine with backLatchStages gatable back-end latch stages. extra
// names additional channels (beyond the implicit usage channel) whose
// payloads every cycle record will carry, e.g. ChannelLatchValue for
// value-dependent schemes. Unknown or duplicated channel names are
// rejected.
func NewWriter(w io.Writer, name string, backLatchStages int, extra ...string) (*Writer, error) {
	if len(name) > 255 {
		return nil, fmt.Errorf("usagetrace: workload name too long")
	}
	if backLatchStages < 0 {
		return nil, fmt.Errorf("usagetrace: negative latch stage count")
	}
	channels := make([]string, 0, 1+len(extra))
	channels = append(channels, ChannelUsage)
	hasLatchValue := false
	for _, ch := range extra {
		if !validExtraChannel(ch) {
			return nil, fmt.Errorf("usagetrace: unknown trace channel %q (known: %v)", ch, KnownChannels())
		}
		for _, have := range channels {
			if have == ch {
				return nil, fmt.Errorf("usagetrace: duplicate trace channel %q", ch)
			}
		}
		channels = append(channels, ch)
		if ch == ChannelLatchValue {
			hasLatchValue = true
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(traceVersion); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(byte(len(name))); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(channels)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return nil, err
	}
	for _, ch := range channels {
		if err := bw.WriteByte(byte(len(ch))); err != nil {
			return nil, err
		}
		if _, err := bw.WriteString(ch); err != nil {
			return nil, err
		}
		n = binary.PutUvarint(buf[:], uint64(backLatchStages))
		if _, err := bw.Write(buf[:n]); err != nil {
			return nil, err
		}
	}
	sc := scratchPool.Get().(*encodeScratch)
	return &Writer{
		w:             bw,
		name:          name,
		stages:        backLatchStages,
		channels:      channels,
		hasLatchValue: hasLatchValue,
		scratch:       sc.buf[:0],
		pending:       sc.pending[:0],
		sc:            sc,
	}, nil
}

// OnIssue implements cpu.IssueListener: the event is buffered until the
// cycle's usage vector closes the record.
func (t *Writer) OnIssue(ev cpu.IssueEvent) {
	if t.err != nil || t.closed {
		return
	}
	t.pending = append(t.pending, ev)
}

// OnCycle implements cpu.Observer: it writes the cycle record (buffered
// events first, then the usage vector) and releases the event buffer.
func (t *Writer) OnCycle(u *cpu.Usage) {
	if t.err != nil || t.closed {
		return
	}
	if u.Cycle != t.cycles {
		t.err = fmt.Errorf("usagetrace: non-contiguous cycle %d (expected %d)", u.Cycle, t.cycles)
		return
	}
	if len(u.BackLatch) != t.stages {
		t.err = fmt.Errorf("usagetrace: usage has %d latch stages, trace declares %d",
			len(u.BackLatch), t.stages)
		return
	}

	b := t.scratch[:0]
	b = append(b, tagCycle)
	b = binary.AppendUvarint(b, uint64(len(t.pending)))
	for i := range t.pending {
		b = appendEvent(b, &t.pending[i], u.Cycle)
	}
	b = binary.AppendUvarint(b, uint64(u.IssueCount))
	b = binary.AppendUvarint(b, uint64(u.FPIssueCount))
	b = binary.AppendUvarint(b, uint64(u.MemIssueCount))
	b = binary.AppendUvarint(b, uint64(u.IntALUBusy))
	b = binary.AppendUvarint(b, uint64(u.IntMultBusy))
	b = binary.AppendUvarint(b, uint64(u.FPALUBusy))
	b = binary.AppendUvarint(b, uint64(u.FPMultBusy))
	b = binary.AppendUvarint(b, uint64(u.DPortUsed))
	b = binary.AppendUvarint(b, uint64(u.ResultBus))
	b = binary.AppendUvarint(b, uint64(u.CommitCount))
	b = binary.AppendUvarint(b, uint64(u.FetchCount))
	b = binary.AppendVarint(b, int64(u.WindowOccupancy)-t.lastOcc)
	for _, n := range u.BackLatch {
		b = binary.AppendUvarint(b, uint64(n))
	}
	if t.hasLatchValue {
		if len(u.BackLatchNewVal) != t.stages {
			t.err = fmt.Errorf("usagetrace: usage has %d latchvalue stages, trace declares %d",
				len(u.BackLatchNewVal), t.stages)
			return
		}
		for _, n := range u.BackLatchNewVal {
			b = binary.AppendUvarint(b, uint64(n))
		}
	}
	t.scratch = b
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		return
	}
	t.lastOcc = int64(u.WindowOccupancy)
	t.pending = t.pending[:0]
	t.cycles++
}

// appendEvent encodes one issue event; future cycles are stored as deltas
// from the select cycle.
func appendEvent(b []byte, ev *cpu.IssueEvent, cycle uint64) []byte {
	var flags byte
	if ev.FUIdx >= 0 {
		flags |= flagHasFU | byte(ev.FUType)<<fuTypeShift
	}
	if ev.IsLoad {
		flags |= flagIsLoad
	}
	if ev.IsStore {
		flags |= flagIsStore
	}
	if ev.WritesReg {
		flags |= flagWritesReg
	}
	b = append(b, flags)
	if ev.FUIdx >= 0 {
		b = binary.AppendUvarint(b, uint64(ev.FUIdx))
		b = binary.AppendUvarint(b, ev.FUStart-cycle)
		b = binary.AppendUvarint(b, uint64(ev.FULat))
	}
	if ev.IsLoad || ev.IsStore {
		b = binary.AppendUvarint(b, ev.DPortCycle-cycle)
	}
	if ev.WritesReg {
		b = binary.AppendUvarint(b, ev.ResultBusCycle-cycle)
	}
	return b
}

// Cycles returns the number of cycle records written so far.
func (t *Writer) Cycles() uint64 { return t.cycles }

// Channels returns the channel table being written, usage first.
func (t *Writer) Channels() []string { return t.channels }

// Err returns the first latched write error.
func (t *Writer) Err() error { return t.err }

// Close writes the end marker (tag + total cycle count) and flushes,
// then releases the pooled encode scratch. Events buffered for a cycle
// whose usage vector never arrived are a capture bug and fail the close.
func (t *Writer) Close() error {
	if t.closed {
		return t.err
	}
	t.closed = true
	defer t.releaseScratch()
	if t.err != nil {
		return t.err
	}
	if len(t.pending) > 0 {
		t.err = fmt.Errorf("usagetrace: %d issue events buffered past the last cycle record", len(t.pending))
		return t.err
	}
	b := t.scratch[:0]
	b = append(b, tagEnd)
	b = binary.AppendUvarint(b, t.cycles)
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		return t.err
	}
	t.err = t.w.Flush()
	return t.err
}

// releaseScratch hands the (possibly grown) encode buffers back to the
// pool for the next capture.
func (t *Writer) releaseScratch() {
	if t.sc == nil {
		return
	}
	t.sc.buf = t.scratch[:0]
	t.sc.pending = t.pending[:0]
	scratchPool.Put(t.sc)
	t.sc, t.scratch, t.pending = nil, nil, nil
}

// header is a parsed trace header.
type header struct {
	name          string
	stages        int
	channels      []string
	hasLatchValue bool
}

// parseHeader parses the trace header at the front of data and returns
// it with the offset of the first cycle record.
func parseHeader(data []byte) (header, int, error) {
	var h header
	const fixed = len(traceMagic) + 2 // magic, version, name length
	if len(data) < fixed {
		return h, 0, fmt.Errorf("usagetrace: short header: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:len(traceMagic)]) != traceMagic {
		return h, 0, fmt.Errorf("usagetrace: bad magic %q (not a usage trace)", data[:len(traceMagic)])
	}
	v := data[len(traceMagic)]
	if v != traceVersion && v != traceVersion1 {
		return h, 0, fmt.Errorf("usagetrace: unsupported version %d (reader speaks %d and %d)",
			v, traceVersion1, traceVersion)
	}
	nameLen := int(data[len(traceMagic)+1])
	if len(data)-fixed < nameLen {
		return h, 0, fmt.Errorf("usagetrace: short name: %w", io.ErrUnexpectedEOF)
	}
	h.name = string(data[fixed : fixed+nameLen])
	c := cursor{data: data, off: fixed + nameLen}

	if v == traceVersion1 {
		// v1: a bare backLatchStages uvarint, usage channel implicit.
		stages, ok := c.uvarint()
		if !ok {
			return h, 0, fmt.Errorf("usagetrace: short header (latch stages): %w", c.err())
		}
		if stages > maxLatchStages {
			return h, 0, fmt.Errorf("usagetrace: implausible latch stage count %d (limit %d)",
				stages, maxLatchStages)
		}
		h.stages = int(stages)
		h.channels = []string{ChannelUsage}
		return h, c.off, nil
	}

	// v2: a channel table, usage mandatory and first.
	nch, ok := c.uvarint()
	if !ok {
		return h, 0, fmt.Errorf("usagetrace: short header (channel count): %w", c.err())
	}
	if nch == 0 {
		return h, 0, fmt.Errorf("usagetrace: corrupt channel table: no channels (usage is mandatory)")
	}
	if nch > maxTraceChannels {
		return h, 0, fmt.Errorf("usagetrace: implausible channel count %d (limit %d)", nch, maxTraceChannels)
	}
	h.channels = make([]string, 0, nch)
	for i := uint64(0); i < nch; i++ {
		nameLen, ok := c.byte()
		if !ok || len(c.data)-c.off < int(nameLen) {
			return h, 0, fmt.Errorf("usagetrace: short channel header %d: %w", i, io.ErrUnexpectedEOF)
		}
		ch := string(c.data[c.off : c.off+int(nameLen)])
		c.off += int(nameLen)
		stages, ok := c.uvarint()
		if !ok {
			return h, 0, fmt.Errorf("usagetrace: short channel header %q: %w", ch, c.err())
		}
		if stages > maxLatchStages {
			return h, 0, fmt.Errorf("usagetrace: channel %q declares implausible stage count %d (limit %d)",
				ch, stages, maxLatchStages)
		}
		switch {
		case i == 0:
			if ch != ChannelUsage {
				return h, 0, fmt.Errorf("usagetrace: corrupt channel table: first channel is %q, want %q",
					ch, ChannelUsage)
			}
			h.stages = int(stages)
		case ch == ChannelUsage:
			return h, 0, fmt.Errorf("usagetrace: corrupt channel table: duplicate %q channel", ChannelUsage)
		case !validExtraChannel(ch):
			return h, 0, fmt.Errorf("usagetrace: unknown trace channel %q (known: %v)", ch, KnownChannels())
		case int(stages) != h.stages:
			return h, 0, fmt.Errorf("usagetrace: channel %q declares %d stages but usage declares %d",
				ch, stages, h.stages)
		default:
			for _, have := range h.channels {
				if have == ch {
					return h, 0, fmt.Errorf("usagetrace: corrupt channel table: duplicate %q channel", ch)
				}
			}
			if ch == ChannelLatchValue {
				h.hasLatchValue = true
			}
		}
		h.channels = append(h.channels, ch)
	}
	return h, c.off, nil
}

// cursor reads bytes and varints from an in-memory encoding.
type cursor struct {
	data []byte
	off  int
}

func (c *cursor) byte() (byte, bool) {
	if c.off >= len(c.data) {
		return 0, false
	}
	b := c.data[c.off]
	c.off++
	return b, true
}

// uvarint reads one unsigned varint.
func (c *cursor) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		return 0, false
	}
	c.off += n
	return v, true
}

// uvarints reads len(dst) consecutive unsigned varints and returns how
// many it read: fewer than len(dst) when the encoding ends or a varint
// overflows. Most fields of a cycle record fit in one byte, which the
// loop decodes without a call.
func (c *cursor) uvarints(dst []uint64) int {
	data, off := c.data, c.off
	for i := range dst {
		if off < len(data) && data[off] < 0x80 {
			dst[i] = uint64(data[off])
			off++
			continue
		}
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			c.off = off
			return i
		}
		dst[i] = v
		off += n
	}
	c.off = off
	return len(dst)
}

// varint reads one zigzag-encoded signed varint.
func (c *cursor) varint() (int64, bool) {
	v, n := binary.Varint(c.data[c.off:])
	if n <= 0 {
		return 0, false
	}
	c.off += n
	return v, true
}

// err says why the read at the cursor failed: the encoding ends inside
// it, or it is a varint longer than 64 bits.
func (c *cursor) err() error {
	if _, n := binary.Uvarint(c.data[c.off:]); n < 0 {
		return errVarintOverflow
	}
	return io.ErrUnexpectedEOF
}

var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// event is one decoded issue event in compact form: 20 bytes against
// cpu.IssueEvent's 72. flags is the encoded flags byte, FU type included
// (bits above the FU type are cleared for an event without an FU), and
// the timing fields are the encoded offsets from the select cycle. The
// select cycle itself is implicit in the record the event belongs to;
// expand rebuilds the cpu.IssueEvent.
type event struct {
	flags   byte
	fuIdx   uint8
	fuLat   uint32
	fuStart uint32 // FUStart - Cycle
	dport   uint32 // DPortCycle - Cycle
	bus     uint32 // ResultBusCycle - Cycle
}

// expand rebuilds the issue event selected at cycle c.
func (e *event) expand(c uint64) cpu.IssueEvent {
	ev := cpu.IssueEvent{
		Cycle:     c,
		FUIdx:     -1,
		IsLoad:    e.flags&flagIsLoad != 0,
		IsStore:   e.flags&flagIsStore != 0,
		WritesReg: e.flags&flagWritesReg != 0,
	}
	if e.flags&flagHasFU != 0 {
		ev.FUType = cpu.FUType(e.flags >> fuTypeShift)
		ev.FUIdx = int(e.fuIdx)
		ev.FUStart = c + uint64(e.fuStart)
		ev.FULat = int(e.fuLat)
	}
	if ev.IsLoad || ev.IsStore {
		ev.DPortCycle = c + uint64(e.dport)
	}
	if ev.WritesReg {
		ev.ResultBusCycle = c + uint64(e.bus)
	}
	return ev
}

// record is one cycle's usage vector at column width; the per-stage
// latch counts are parsed into caller-owned slices.
type record struct {
	issue, fpIssue, memIssue       int32
	intALU, intMult, fpALU, fpMult uint32
	dport, resultBus               int32
	commit, fetch, occ             int32
}

// fill copies the record of cycle c into a usage vector whose BackLatch
// (and BackLatchNewVal, when newVal is non-nil) already has the stage
// count's length.
func (rec *record) fill(u *cpu.Usage, c uint64, latch, newVal []int32) {
	u.Cycle = c
	u.IssueCount = int(rec.issue)
	u.FPIssueCount = int(rec.fpIssue)
	u.MemIssueCount = int(rec.memIssue)
	u.IntALUBusy = rec.intALU
	u.IntMultBusy = rec.intMult
	u.FPALUBusy = rec.fpALU
	u.FPMultBusy = rec.fpMult
	u.DPortUsed = int(rec.dport)
	u.ResultBus = int(rec.resultBus)
	u.CommitCount = int(rec.commit)
	u.FetchCount = int(rec.fetch)
	u.WindowOccupancy = int(rec.occ)
	for s, v := range latch {
		u.BackLatch[s] = int(v)
	}
	for s, v := range newVal {
		u.BackLatchNewVal[s] = int(v)
	}
}

// recordParser decodes the cycle records that follow a trace header. It
// is the one parser of the record format: Reader.Next and the load walk
// (decodeTrace) both call next.
//
// Every value is checked against the width the decoded form keeps it
// at: counts and latch values must fit an int32 column (the writer's
// uint64 image of a negative int does), busy masks a uint32, and event
// fields the compact event. A value that does not fit fails the parse
// naming the field, so a stream decodes to the same values whichever
// path reads it.
type recordParser struct {
	cursor
	stages        int
	hasLatchValue bool
	cycle         uint64
	lastOcc       int64
	done          bool
}

// maxCycleEvents bounds one record's issue-event count: a core issues a
// handful of instructions per cycle, so a larger count is corruption.
const maxCycleEvents = 1 << 16

// next parses the record of cycle p.cycle. It appends the cycle's issue
// events to evs, stores the usage vector in rec and the per-stage latch
// counts in latch (and the latchvalue counts in newVal, when the trace
// has that channel); both slices must have length p.stages. The end
// marker returns io.EOF once its declared cycle count matches the
// records read and nothing follows it; truncation or corruption returns
// a descriptive error.
func (p *recordParser) next(evs []event, rec *record, latch, newVal []int32) ([]event, error) {
	if p.done {
		return evs, io.EOF
	}
	tag, ok := p.byte()
	if !ok {
		return evs, fmt.Errorf("usagetrace: truncated at cycle %d (missing end marker): %w", p.cycle, io.EOF)
	}
	switch tag {
	case tagEnd:
		declared, ok := p.uvarint()
		if !ok {
			return evs, fmt.Errorf("usagetrace: truncated end marker: %w", p.err())
		}
		if declared != p.cycle {
			return evs, fmt.Errorf("usagetrace: end marker declares %d cycles but %d were read", declared, p.cycle)
		}
		if p.off != len(p.data) {
			return evs, fmt.Errorf("usagetrace: trailing data after end marker")
		}
		p.done = true
		return evs, io.EOF
	case tagCycle:
	default:
		return evs, fmt.Errorf("usagetrace: corrupt record tag 0x%02x at cycle %d", tag, p.cycle)
	}

	nev, ok := p.uvarint()
	if !ok {
		return evs, fmt.Errorf("usagetrace: truncated at cycle %d: %w", p.cycle, p.err())
	}
	if nev > maxCycleEvents {
		return evs, fmt.Errorf("usagetrace: corrupt event count %d at cycle %d", nev, p.cycle)
	}
	for i := uint64(0); i < nev; i++ {
		e, err := p.event()
		if err != nil {
			return evs, err
		}
		evs = append(evs, e)
	}

	// The eleven unsigned usage fields, in encoding order: issue, fpIssue,
	// memIssue, the four FU busy masks, dport, resultBus, commit, fetch.
	var f [11]uint64
	if p.uvarints(f[:]) < len(f) {
		return evs, fmt.Errorf("usagetrace: truncated usage at cycle %d: %w", p.cycle, p.err())
	}
	if f[0]|f[1]|f[2]|f[7]|f[8]|f[9]|f[10] > math.MaxInt32 || f[3]|f[4]|f[5]|f[6] > math.MaxUint32 {
		if err := p.usageWidthErr(&f); err != nil {
			return evs, err
		}
	}
	rec.issue, rec.fpIssue, rec.memIssue = int32(f[0]), int32(f[1]), int32(f[2])
	rec.intALU, rec.intMult, rec.fpALU, rec.fpMult = uint32(f[3]), uint32(f[4]), uint32(f[5]), uint32(f[6])
	rec.dport, rec.resultBus, rec.commit, rec.fetch = int32(f[7]), int32(f[8]), int32(f[9]), int32(f[10])

	delta, ok := p.varint()
	if !ok {
		return evs, fmt.Errorf("usagetrace: truncated usage at cycle %d: %w", p.cycle, p.err())
	}
	occ := p.lastOcc + delta
	if occ != int64(int32(occ)) {
		return evs, fmt.Errorf("usagetrace: window occupancy %d at cycle %d does not fit its int32 column", occ, p.cycle)
	}
	p.lastOcc = occ
	rec.occ = int32(occ)
	if err := p.int32s(latch, "usage"); err != nil {
		return evs, err
	}
	if p.hasLatchValue {
		if err := p.int32s(newVal, "latchvalue"); err != nil {
			return evs, err
		}
	}
	p.cycle++
	return evs, nil
}

// usageWidthErr names the first usage field of f too wide for its
// column, or returns nil when every field fits (a count may be the
// image of a negative int).
func (p *recordParser) usageWidthErr(f *[11]uint64) error {
	for i, v := range f {
		if i >= 3 && i < 7 {
			if v > math.MaxUint32 {
				return fmt.Errorf("usagetrace: busy mask %#x at cycle %d is wider than 32 units", v, p.cycle)
			}
		} else if !fitsInt32(v) {
			return fmt.Errorf("usagetrace: usage value %d at cycle %d does not fit its int32 column", v, p.cycle)
		}
	}
	return nil
}

// fitsInt32 reports whether an encoded count fits an int32 column:
// either a non-negative value below 2^31 or the writer's uint64 image
// of a negative int of that range.
func fitsInt32(v uint64) bool { return v == uint64(int64(int32(v))) }

// int32s reads len(dst) uvarints of the named channel into an int32
// column row.
func (p *recordParser) int32s(dst []int32, channel string) error {
	var buf [8]uint64
	for len(dst) > 0 {
		f := buf[:min(len(dst), len(buf))]
		if p.uvarints(f) < len(f) {
			return fmt.Errorf("usagetrace: truncated %s at cycle %d: %w", channel, p.cycle, p.err())
		}
		for i, v := range f {
			if !fitsInt32(v) {
				return fmt.Errorf("usagetrace: %s value %d at cycle %d does not fit its int32 column", channel, v, p.cycle)
			}
			dst[i] = int32(v)
		}
		dst = dst[len(f):]
	}
	return nil
}

// event decodes one issue event of the current cycle.
func (p *recordParser) event() (event, error) {
	var e event
	flags, ok := p.byte()
	if !ok {
		return e, fmt.Errorf("usagetrace: truncated event at cycle %d: %w", p.cycle, io.ErrUnexpectedEOF)
	}
	hasFU := flags&flagHasFU != 0
	usesPort := flags&(flagIsLoad|flagIsStore) != 0
	writesReg := flags&flagWritesReg != 0
	if !hasFU {
		flags &= 1<<fuTypeShift - 1 // the FU type means nothing without an FU
	} else if t := flags >> fuTypeShift; t >= byte(cpu.NumFUTypes) {
		return e, fmt.Errorf("usagetrace: corrupt FU type %d in event at cycle %d", t, p.cycle)
	}
	e.flags = flags

	// The fields present, in encoding order: FU index, FU start delta and
	// FU latency; D-port delta; result-bus delta.
	n := 0
	if hasFU {
		n = 3
	}
	if usesPort {
		n++
	}
	if writesReg {
		n++
	}
	var v [5]uint64
	if p.uvarints(v[:n]) < n {
		return e, fmt.Errorf("usagetrace: truncated event at cycle %d: %w", p.cycle, p.err())
	}
	i := 0
	if hasFU {
		if v[0] > math.MaxUint8 {
			return e, p.compactErr("FU index", v[0], math.MaxUint8)
		}
		if v[1] > math.MaxUint32 {
			return e, p.compactErr("FU start delta", v[1], math.MaxUint32)
		}
		if v[2] > math.MaxUint32 {
			return e, p.compactErr("FU latency", v[2], math.MaxUint32)
		}
		e.fuIdx, e.fuStart, e.fuLat = uint8(v[0]), uint32(v[1]), uint32(v[2])
		i = 3
	}
	if usesPort {
		if v[i] > math.MaxUint32 {
			return e, p.compactErr("D-port delta", v[i], math.MaxUint32)
		}
		e.dport = uint32(v[i])
		i++
	}
	if writesReg {
		if v[i] > math.MaxUint32 {
			return e, p.compactErr("result-bus delta", v[i], math.MaxUint32)
		}
		e.bus = uint32(v[i])
	}
	return e, nil
}

// compactErr names an event field too wide for the compact event.
func (p *recordParser) compactErr(field string, v, limit uint64) error {
	return fmt.Errorf("usagetrace: %s %d in event at cycle %d does not fit the compact event (limit %d)",
		field, v, p.cycle, limit)
}

// Reader decodes a capture stream cycle by cycle. The usage vector and
// event slice returned by Next are reused between calls — the same
// contract the live core imposes on its observers.
type Reader struct {
	header
	p recordParser

	evs           []event
	rec           record
	latch, newVal []int32

	u      cpu.Usage
	events []cpu.IssueEvent
}

// NewReader reads the whole stream, parses the header and positions the
// reader at cycle 0. The stream may be gzip-compressed (as written by
// EncodeGzip): the two gzip magic bytes are sniffed and the stream is
// inflated up front. A stream larger than the size cap, raw or
// inflated, fails with ErrTooLarge.
func NewReader(r io.Reader) (*Reader, error) {
	data, err := readTrace(r)
	if err != nil {
		return nil, err
	}
	return newReader(data)
}

// newReader positions a reader over an in-memory encoding, which it
// reads in place.
func newReader(data []byte) (*Reader, error) {
	h, off, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	rd := &Reader{
		header: h,
		p: recordParser{
			cursor:        cursor{data: data, off: off},
			stages:        h.stages,
			hasLatchValue: h.hasLatchValue,
		},
		latch: make([]int32, h.stages),
	}
	rd.u.BackLatch = make([]int, h.stages)
	if h.hasLatchValue {
		rd.newVal = make([]int32, h.stages)
		rd.u.BackLatchNewVal = make([]int, h.stages)
	}
	return rd, nil
}

// Name returns the traced workload's name.
func (r *Reader) Name() string { return r.name }

// BackLatchStages returns the machine's gatable back-end latch stage
// count (the fixed BackLatch slice length).
func (r *Reader) BackLatchStages() int { return r.stages }

// Channels returns the trace's channel table, usage first. v1 streams
// report the implicit usage-only table.
func (r *Reader) Channels() []string { return r.channels }

// Next decodes the next cycle: its issue events (in capture order) and
// its usage vector. Both point into buffers reused by the following Next.
// A clean end of trace returns io.EOF; truncation or corruption returns a
// descriptive error instead.
func (r *Reader) Next() ([]cpu.IssueEvent, *cpu.Usage, error) {
	c := r.p.cycle
	var err error
	if r.evs, err = r.p.next(r.evs[:0], &r.rec, r.latch, r.newVal); err != nil {
		return nil, nil, err
	}
	r.events = r.events[:0]
	for i := range r.evs {
		r.events = append(r.events, r.evs[i].expand(c))
	}
	r.rec.fill(&r.u, c, r.latch, r.newVal)
	return r.events, &r.u, nil
}

// Replay streams the trace through a gating scheme and an observer in the
// core's delivery order: each cycle's issue events (lis.OnIssue) strictly
// before its usage vector (obs.OnCycle). Either consumer may be nil. It
// returns the replayed cycle count.
func Replay(r *Reader, lis cpu.IssueListener, obs cpu.Observer) (uint64, error) {
	var cycles uint64
	for {
		events, u, err := r.Next()
		if err == io.EOF {
			return cycles, nil
		}
		if err != nil {
			return cycles, err
		}
		if lis != nil {
			for _, ev := range events {
				lis.OnIssue(ev)
			}
		}
		if obs != nil {
			obs.OnCycle(u)
		}
		cycles++
	}
}
