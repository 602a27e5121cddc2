package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync/atomic"

	"dcg/internal/core"
	"dcg/internal/obs"
	"dcg/internal/retry"
	"dcg/internal/simrun"
)

// The remote tier: the same CRC-framed artifacts the disk store keeps,
// shipped over HTTP. A Store exposes its object tree through Handler
// (mounted by dcgserve under /store/v1); a worker wraps its local disk
// store in a Remote that reads through to the coordinator's store on a
// miss and writes back every artifact it produces. Frames travel
// verbatim in both directions, so the CRC computed at the original
// write is the CRC checked at every later read, on every node.

// maxArtifactBytes bounds a single uploaded artifact. Timing captures
// dominate and run to tens of megabytes gzipped; 1 GiB is far above any
// legitimate artifact while still bounding a hostile request body.
const maxArtifactBytes = 1 << 30

const objectsPrefix = "/objects/"

// kindForExt maps an artifact file extension to its frame kind byte.
func kindForExt(ext string) (byte, bool) {
	switch ext {
	case extResult:
		return kindResult, true
	case extTiming:
		return kindTiming, true
	}
	return 0, false
}

// validAddr reports whether addr is a well-formed artifact address
// (64 lowercase hex characters), the only shape path() may see.
func validAddr(addr string) bool {
	if len(addr) != 64 {
		return false
	}
	for i := 0; i < len(addr); i++ {
		c := addr[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Handler serves the store's object tree over HTTP:
//
//	GET /objects/{addr}{.res|.tim} — the raw framed artifact (404 on
//	    miss; a corrupt artifact is evicted and reads as a miss)
//	PUT /objects/{addr}{.res|.tim} — install an artifact; the frame is
//	    validated before any byte lands on disk (400 on a bad frame)
//
// Mount it under a prefix with http.StripPrefix. GETs validate the
// frame before serving, so a store never propagates corruption to
// other nodes.
func (s *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest, ok := strings.CutPrefix(r.URL.Path, objectsPrefix)
		if !ok || strings.ContainsAny(rest, "/\\") {
			http.NotFound(w, r)
			return
		}
		dot := strings.LastIndexByte(rest, '.')
		if dot < 0 {
			http.NotFound(w, r)
			return
		}
		addr, ext := rest[:dot], rest[dot:]
		kind, ok := kindForExt(ext)
		if !ok || !validAddr(addr) {
			http.NotFound(w, r)
			return
		}
		path := s.path(addr, ext)
		switch r.Method {
		case http.MethodGet:
			frame, ok := s.readFrame(path, kind)
			if !ok {
				http.Error(w, "no such artifact", http.StatusNotFound)
				return
			}
			s.touch(path)
			s.hits.Add(1)
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(frame)
		case http.MethodPut:
			frame, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxArtifactBytes))
			if err != nil {
				http.Error(w, "reading artifact: "+err.Error(), http.StatusBadRequest)
				return
			}
			if _, err := decodeFrame(frame, kind); err != nil {
				http.Error(w, "invalid artifact frame: "+err.Error(), http.StatusBadRequest)
				return
			}
			if err := s.putFrame(path, frame); err != nil {
				http.Error(w, "persisting artifact: "+err.Error(), http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			w.Header().Set("Allow", "GET, PUT")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}

// errRemoteMiss marks a 404 from the remote store: not an error, just a
// miss — and never worth a retry.
var errRemoteMiss = fmt.Errorf("remote store: artifact not found")

// Remote layers the HTTP artifact service over a local disk store:
// reads fall through to the remote on a local miss and install what
// they fetch (read-through), writes land locally and upload in the
// same call (write-back). Like every PersistentTier, it is a cache —
// remote failures are absorbed, counted, and logged, never surfaced.
type Remote struct {
	base  string // URL of the remote store root, e.g. http://host:8080/store/v1
	local *Store
	log   *slog.Logger

	// Client and Retry may be replaced before first use (tests inject
	// a fake clock through Retry.Sleep).
	Client *http.Client
	Retry  retry.Policy

	remoteHits   atomic.Uint64
	remoteMisses atomic.Uint64
	remoteErrors atomic.Uint64
	uploads      atomic.Uint64
}

// NewRemote wraps local in a read-through/write-back client of the
// artifact service at base (no trailing slash, e.g.
// "http://coordinator:8080/store/v1").
func NewRemote(base string, local *Store, log *slog.Logger) *Remote {
	if log == nil {
		log = obs.NopLogger()
	}
	return &Remote{
		base:   strings.TrimSuffix(base, "/"),
		local:  local,
		log:    log,
		Client: &http.Client{},
		Retry:  retry.Default(),
	}
}

// Local returns the underlying disk store.
func (r *Remote) Local() *Store { return r.local }

// RemoteStats is a snapshot of the remote tier's activity counters.
// Local-cache activity is counted by the wrapped Store's own Stats.
type RemoteStats struct {
	Hits   uint64 // artifacts fetched from the remote store
	Misses uint64 // remote lookups that found nothing
	Errors uint64 // remote calls that failed after retries (absorbed)
	Writes uint64 // artifacts uploaded to the remote store
}

// Stats snapshots the remote counters.
func (r *Remote) Stats() RemoteStats {
	return RemoteStats{
		Hits:   r.remoteHits.Load(),
		Misses: r.remoteMisses.Load(),
		Errors: r.remoteErrors.Load(),
		Writes: r.uploads.Load(),
	}
}

// Register exposes the remote tier's counters on an obs.Registry.
func (r *Remote) Register(reg *obs.Registry) {
	reg.CounterFunc("dcg_cluster_store_hits_total",
		"Artifacts fetched from the remote store tier.",
		func() float64 { return float64(r.remoteHits.Load()) })
	reg.CounterFunc("dcg_cluster_store_misses_total",
		"Remote store lookups that found no artifact.",
		func() float64 { return float64(r.remoteMisses.Load()) })
	reg.CounterFunc("dcg_cluster_store_errors_total",
		"Remote store calls that failed after retries (absorbed).",
		func() float64 { return float64(r.remoteErrors.Load()) })
	reg.CounterFunc("dcg_cluster_store_writes_total",
		"Artifacts uploaded to the remote store tier.",
		func() float64 { return float64(r.uploads.Load()) })
}

// GetResult implements simrun.PersistentTier: local disk first, then
// the remote store, installing a remote hit into the local cache.
func (r *Remote) GetResult(ctx context.Context, k simrun.Key) (*core.Result, bool) {
	if res, ok := r.local.GetResult(ctx, k); ok {
		return res, true
	}
	payload, frame, ok := r.fetch(ctx, resultAddr(k), extResult, kindResult)
	if !ok {
		return nil, false
	}
	res, err := decodeResultPayload(payload)
	if err != nil {
		r.remoteErrors.Add(1)
		r.log.Warn("store: remote result undecodable", "err", err)
		return nil, false
	}
	_ = r.local.putFrame(r.local.path(resultAddr(k), extResult), frame)
	return res, true
}

// PutResult implements simrun.PersistentTier: write locally, then
// upload the identical frame.
func (r *Remote) PutResult(ctx context.Context, k simrun.Key, res *core.Result) {
	r.local.PutResult(ctx, k, res)
	r.upload(ctx, resultAddr(k), extResult, kindResult,
		func() ([]byte, error) { return encodeResultPayload(res) })
}

// GetTiming implements simrun.PersistentTier.
func (r *Remote) GetTiming(ctx context.Context, k simrun.TimingKey) (*core.Timing, bool) {
	if tm, ok := r.local.GetTiming(ctx, k); ok {
		return tm, true
	}
	payload, frame, ok := r.fetch(ctx, timingAddr(k), extTiming, kindTiming)
	if !ok {
		return nil, false
	}
	tm, err := decodeTimingPayload(ctx, payload)
	if err != nil {
		r.remoteErrors.Add(1)
		r.log.Warn("store: remote timing undecodable", "err", err)
		return nil, false
	}
	_ = r.local.putFrame(r.local.path(timingAddr(k), extTiming), frame)
	return tm, true
}

// PutTiming implements simrun.PersistentTier.
func (r *Remote) PutTiming(ctx context.Context, k simrun.TimingKey, tm *core.Timing) {
	r.local.PutTiming(ctx, k, tm)
	r.upload(ctx, timingAddr(k), extTiming, kindTiming,
		func() ([]byte, error) { return encodeTimingPayload(tm) })
}

// objectURL is the remote address of one artifact.
func (r *Remote) objectURL(addr, ext string) string {
	return r.base + objectsPrefix + addr + ext
}

// fetch GETs one artifact with bounded retries, validating the frame
// end-to-end. It returns the payload and the raw frame (for verbatim
// installation into the local cache).
func (r *Remote) fetch(ctx context.Context, addr, ext string, kind byte) (payload, frame []byte, ok bool) {
	_, sp := obs.StartSpan(ctx, "store.remote_get")
	sp.SetAttr("addr", addr[:12])
	defer func() { sp.SetAttrBool("hit", ok); sp.Finish() }()
	err := r.Retry.Do(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.objectURL(addr, ext), nil)
		if err != nil {
			return retry.Permanent(err)
		}
		obs.Inject(ctx, req.Header)
		resp, err := r.Client.Do(req)
		if err != nil {
			return err
		}
		defer func() {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		switch {
		case resp.StatusCode == http.StatusOK:
			frame, err = io.ReadAll(io.LimitReader(resp.Body, maxArtifactBytes))
			return err
		case resp.StatusCode == http.StatusNotFound:
			return retry.Permanent(errRemoteMiss)
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			return retry.Permanent(fmt.Errorf("remote store: %s", resp.Status))
		default:
			return fmt.Errorf("remote store: %s", resp.Status)
		}
	})
	if err != nil {
		if errors.Is(err, errRemoteMiss) {
			r.remoteMisses.Add(1)
		} else {
			r.remoteErrors.Add(1)
			r.log.Warn("store: remote fetch failed", "addr", addr, "err", err)
		}
		return nil, nil, false
	}
	payload, err = decodeFrame(frame, kind)
	if err != nil {
		r.remoteErrors.Add(1)
		r.log.Error("store: remote artifact corrupt in transit", "addr", addr, "err", err)
		return nil, nil, false
	}
	r.remoteHits.Add(1)
	return payload, frame, true
}

// upload PUTs one artifact with bounded retries. The frame is read back
// from the just-written local file when possible — one encode, and the
// remote copy is byte-identical to the local one — falling back to a
// fresh encode when the local write was absorbed as a failure.
func (r *Remote) upload(ctx context.Context, addr, ext string, kind byte, encode func() ([]byte, error)) {
	_, sp := obs.StartSpan(ctx, "store.remote_put")
	sp.SetAttr("addr", addr[:12])
	defer sp.Finish()
	frame, err := os.ReadFile(r.local.path(addr, ext))
	if err != nil || len(frame) < frameOverhead {
		payload, perr := encode()
		if perr != nil {
			r.remoteErrors.Add(1)
			r.log.Warn("store: remote upload encode failed", "addr", addr, "err", perr)
			return
		}
		frame = encodeFrame(kind, payload)
	}
	sp.SetAttrInt("bytes", int64(len(frame)))
	err = r.Retry.Do(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, r.objectURL(addr, ext),
			bytes.NewReader(frame))
		if err != nil {
			return retry.Permanent(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		obs.Inject(ctx, req.Header)
		resp, err := r.Client.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode < 300:
			return nil
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			return retry.Permanent(fmt.Errorf("remote store: %s", resp.Status))
		default:
			return fmt.Errorf("remote store: %s", resp.Status)
		}
	})
	if err != nil {
		r.remoteErrors.Add(1)
		r.log.Warn("store: remote upload failed", "addr", addr, "err", err)
		return
	}
	r.uploads.Add(1)
}
