package usagetrace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"dcg/internal/cpu"
)

// Trace is a complete, validated capture held in memory: the encoded
// stream plus its header metadata. It is immutable after construction —
// any number of replays (Reader/Replay) may run over it concurrently,
// which is what lets one timing pass serve many scheme evaluations.
type Trace struct {
	name     string
	stages   int
	cycles   uint64
	channels []string
	data     []byte

	// The memoized columnar decode (Decode). The sync.Once makes a Trace
	// non-copyable, which is deliberate: every consumer must share the
	// one decode.
	decodeOnce sync.Once
	decoded    *Decoded
	decodeErr  error
}

// Name returns the traced workload's name.
func (t *Trace) Name() string { return t.name }

// BackLatchStages returns the machine's gatable back-end latch stage count.
func (t *Trace) BackLatchStages() int { return t.stages }

// Cycles returns the number of captured cycles.
func (t *Trace) Cycles() uint64 { return t.cycles }

// Channels returns the trace's channel table, usage first. Callers must
// not mutate the returned slice.
func (t *Trace) Channels() []string { return t.channels }

// HasChannel reports whether the trace carries the named channel.
func (t *Trace) HasChannel(name string) bool {
	for _, ch := range t.channels {
		if ch == name {
			return true
		}
	}
	return false
}

// SizeBytes returns the encoded size (the residency cost of caching the
// trace).
func (t *Trace) SizeBytes() int { return len(t.data) }

// Reader opens a fresh decoder over the trace. Safe to call concurrently;
// each reader has independent state.
func (t *Trace) Reader() (*Reader, error) {
	return newReader(t.data)
}

// Decode returns the trace's columnar form, decoding the encoded stream
// at most once per Trace: the first call pays the full decode, every
// later call — from any goroutine — reuses the memoized result. This is
// the "decode once, evaluate many" half of the fused replay engine: all
// coalesced, batched, and sweep-follower scheme evaluations of one
// captured timing share a single decode. A trace loaded by ReadTrace or
// DecodeTrace was decoded by the load itself, so even its first call is
// a reuse. The package-level Decodes / DecodeReuses counters account
// for both outcomes.
func (t *Trace) Decode() (*Decoded, error) {
	fresh := false
	t.decodeOnce.Do(func() {
		fresh = true
		decodeCount.Add(1)
		d, err := decodeTrace(t.data)
		if err == nil && d.cycles != t.cycles {
			d, err = nil, fmt.Errorf("usagetrace: decoded %d cycles but trace header declares %d",
				d.cycles, t.cycles)
		}
		t.decoded, t.decodeErr = d, err
	})
	if !fresh {
		decodeReuseCount.Add(1)
	}
	return t.decoded, t.decodeErr
}

// WriteTo serialises the trace (header, records, end marker) to w, so a
// capture can be persisted and later reloaded with ReadTrace.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(t.data)
	return int64(n), err
}

// EncodeGzip serialises the trace gzip-compressed. The decoders sniff the
// gzip magic, so ReadTrace (and NewReader) accept the output unchanged;
// traces compress roughly 3-4x, which is what the persistent artifact
// store and `dcgsim -trace-out foo.gz` style tooling want on disk.
func (t *Trace) EncodeGzip(w io.Writer) error {
	gz := gzipWriterPool.Get().(*gzip.Writer)
	gz.Reset(w)
	defer gzipWriterPool.Put(gz)
	if _, err := gz.Write(t.data); err != nil {
		gz.Close()
		return fmt.Errorf("usagetrace: gzip encode: %w", err)
	}
	return gz.Close()
}

// ReadTrace loads an encoded trace and decodes it in one walk, which
// also validates it: truncation, corruption, or a version mismatch fails
// here rather than mid-replay. Gzip-compressed streams (EncodeGzip) are
// detected by their magic bytes and inflated up front, so the resident
// Trace always holds the raw encoding and replays never pay for
// decompression. The decode is installed as the Trace's memoized one.
// A stream larger than the size cap, raw or inflated, fails with
// ErrTooLarge.
func ReadTrace(r io.Reader) (*Trace, error) {
	data, err := readTrace(r)
	if err != nil {
		return nil, err
	}
	t, _, err := DecodeTrace(data)
	return t, err
}

// DecodeTrace validates and decodes a raw (inflated) encoding in one
// walk and returns the trace with its decode installed as the memoized
// one, so the trace's Decode is a reuse from the first call. It counts
// as one of Decodes. The trace keeps data.
func DecodeTrace(data []byte) (*Trace, *Decoded, error) {
	decodeCount.Add(1)
	d, err := decodeTrace(data)
	if err != nil {
		return nil, nil, err
	}
	t := &Trace{
		name:     d.name,
		stages:   d.stages,
		cycles:   d.cycles,
		channels: d.channels,
		data:     data,
		decoded:  d,
	}
	t.decodeOnce.Do(func() {})
	return t, d, nil
}

// maxTraceBytes caps the size of an encoded trace that ReadTrace and
// NewReader accept, counted after inflation. A var, like
// maxDecodedEvents, so a test can lower it.
var maxTraceBytes int64 = 1 << 30

// ErrTooLarge reports a stream past a size cap, raw or once inflated.
var ErrTooLarge = errors.New("usagetrace: stream exceeds the size cap")

// readTrace reads a whole trace stream and inflates it (Inflate).
// Neither the read nor the inflation goes past maxTraceBytes.
func readTrace(r io.Reader) ([]byte, error) {
	hint := 512
	if l, ok := r.(interface{ Len() int }); ok {
		hint = l.Len()
	}
	data, err := readCapped(r, hint, maxTraceBytes)
	if err != nil {
		if errors.Is(err, ErrTooLarge) {
			return nil, err
		}
		return nil, fmt.Errorf("usagetrace: %w", err)
	}
	return Inflate(data)
}

// Inflate returns the raw encoding of a stored trace: data itself, or,
// when data carries the gzip magic (EncodeGzip), its inflation, which
// fails with ErrTooLarge past the trace size cap.
func Inflate(data []byte) ([]byte, error) {
	if len(data) >= 2 && data[0] == gzipMagic0 && data[1] == gzipMagic1 {
		return Gunzip(data, maxTraceBytes)
	}
	return data, nil
}

// Gunzip inflates a gzip stream into a buffer sized from the member's
// ISIZE trailer and reads at most limit inflated bytes: a stream that
// inflates past limit fails with ErrTooLarge. The trailer is untrusted,
// so it is only a hint, capped at limit and at what deflate could
// expand compressed to.
func Gunzip(compressed []byte, limit int64) ([]byte, error) {
	gz, err := pooledGzipReader(bytes.NewReader(compressed))
	if err != nil {
		return nil, fmt.Errorf("usagetrace: bad gzip framing: %w", err)
	}
	defer putGzipReader(gz)
	out, err := readCapped(gz, isizeHint(compressed, limit), limit)
	if err != nil {
		if errors.Is(err, ErrTooLarge) {
			return nil, err
		}
		return nil, fmt.Errorf("usagetrace: corrupt gzip stream: %w", err)
	}
	return out, nil
}

// maxDeflateRatio bounds how far deflate can expand its input (a
// 258-byte match per 2-bit code at best is about 1032:1).
const maxDeflateRatio = 1032

// isizeHint is the presize for inflating a gzip stream: its ISIZE
// trailer (the last member's length mod 2^32), capped at limit and at
// maxDeflateRatio times the compressed size.
func isizeHint(compressed []byte, limit int64) int {
	const minMember = 18 // 10-byte header + empty deflate block + 8-byte trailer
	if len(compressed) < minMember {
		return 512
	}
	n := int64(binary.LittleEndian.Uint32(compressed[len(compressed)-4:]))
	n = min(n, limit, maxDeflateRatio*int64(len(compressed)))
	return int(n)
}

// readCapped reads r to EOF into a buffer presized to hint bytes (one
// more, so the read that finds EOF does not regrow it) and fails with
// ErrTooLarge once more than limit bytes arrive.
func readCapped(r io.Reader, hint int, limit int64) ([]byte, error) {
	buf := make([]byte, 0, hint+1)
	lr := io.LimitReader(r, limit+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return nil, fmt.Errorf("%w (%d bytes)", ErrTooLarge, limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Recorder captures a run into an in-memory Trace. It implements
// cpu.Observer and cpu.IssueListener by delegating to a Writer over an
// in-memory buffer; Trace() finalises the stream.
type Recorder struct {
	buf bytes.Buffer
	w   *Writer
}

// NewRecorder starts an in-memory capture for the named workload. extra
// names additional channels beyond the implicit usage channel (see
// NewWriter).
func NewRecorder(name string, backLatchStages int, extra ...string) (*Recorder, error) {
	rec := &Recorder{}
	w, err := NewWriter(&rec.buf, name, backLatchStages, extra...)
	if err != nil {
		return nil, err
	}
	rec.w = w
	return rec, nil
}

// OnIssue implements cpu.IssueListener.
func (r *Recorder) OnIssue(ev cpu.IssueEvent) { r.w.OnIssue(ev) }

// OnCycle implements cpu.Observer.
func (r *Recorder) OnCycle(u *cpu.Usage) { r.w.OnCycle(u) }

// Trace closes the stream and returns the completed capture.
func (r *Recorder) Trace() (*Trace, error) {
	if err := r.w.Close(); err != nil {
		return nil, err
	}
	return &Trace{
		name:     r.w.name,
		stages:   r.w.stages,
		cycles:   r.w.Cycles(),
		channels: r.w.Channels(),
		data:     r.buf.Bytes(),
	}, nil
}
