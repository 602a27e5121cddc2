package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"dcg/internal/obs"
	"dcg/internal/server"
	"dcg/internal/store"
)

// target is one dcgserve instance: the real handler behind a loopback
// listener, plus the store it was given (nil when it has none).
type target struct {
	srv    *server.Server
	store  *store.Store
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

// startTarget serves server.New(cfg).Handler() on 127.0.0.1 and returns
// a client whose connection pool fits the closed loop.
func startTarget(cfg server.Config, clients int) (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	t := &target{
		srv:   server.New(cfg),
		store: cfg.Store,
		url:   "http://" + ln.Addr().String(),
		done:  make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	t.hs = &http.Server{Handler: t.srv.Handler()}
	go func() {
		defer close(t.done)
		_ = t.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	// Open every client's connection before anything is timed.
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = t.get(context.Background(), "/healthz", io.Discard)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// get fetches path and copies the body to w.
func (t *target) get(ctx context.Context, path string, w io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.url+path, nil)
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// close shuts the server down and waits for its serve loop to return.
func (t *target) close() {
	// Closing the client's idle connections first matters: a connection
	// the transport dialed but never used counts as new, not idle, and
	// Shutdown would wait seconds for it.
	t.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = t.hs.Shutdown(ctx) // every request of the closed loop has completed
	<-t.done
}

// metrics scrapes the server's Prometheus exposition.
func (t *target) metrics() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := t.get(context.Background(), "/metrics", &buf); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// planned is one request ready to send: its key and encoded body.
type planned struct {
	key  key
	body []byte
}

func plan(keys []key) []planned {
	out := make([]planned, len(keys))
	for i, k := range keys {
		body, err := json.Marshal(k.request())
		if err != nil {
			panic(err) // a SimRequest always encodes
		}
		out[i] = planned{key: k, body: body}
	}
	return out
}

// sample is the outcome of one request. It is kept small and holds no
// per-request allocation, because a phase keeps every sample alive while
// the live heap is taken (sampleBytes is subtracted from it).
type sample struct {
	latency time.Duration
	cycles  uint64
	source  string // one of sources, or "other"
	problem string // "" when the answer was correct
}

const sampleBytes = uint64(unsafe.Sizeof(sample{}))

// sources are the serving modes a response can name.
var sources = []string{"simulated", "replayed", "coalesced", "cache", "store"}

// internSource returns the constant string equal to src, so a sample does
// not retain the decoded response's copy.
func internSource(src string) string {
	for _, s := range sources {
		if s == src {
			return s
		}
	}
	return "other"
}

// sendFunc hands client c its next request, or false when it is done.
type sendFunc func(c int) (*planned, bool)

// drive runs the closed loop: each of clients goroutines sends a request,
// waits for the whole answer, checks it and only then sends the next.
// With a tracer, every request is the root of a trace that the server
// continues through the traceparent header.
func (t *target) drive(exp expected, clients int, next sendFunc, tracer *obs.Tracer) []sample {
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var body bytes.Buffer
			for {
				p, ok := next(c)
				if !ok {
					return
				}
				per[c] = append(per[c], t.send(exp, p, tracer, &body))
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// send issues one request and checks its answer. Latency runs from the
// send to the last byte of the body; decoding and checking are not timed.
func (t *target) send(exp expected, p *planned, tracer *obs.Tracer, body *bytes.Buffer) sample {
	var s sample
	ctx, sp := tracer.StartRoot(context.Background(), "client.request")
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url+"/v1/sim", bytes.NewReader(p.body))
	if err != nil {
		s.problem = err.Error()
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	obs.Inject(ctx, req.Header)
	body.Reset()
	start := time.Now()
	resp, err := t.client.Do(req)
	if err == nil {
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	s.latency = time.Since(start)
	sp.Finish()
	switch {
	case err != nil:
		s.problem = fmt.Sprintf("%s: %v", p.key, err)
	case resp.StatusCode != http.StatusOK:
		s.problem = fmt.Sprintf("%s: status %d: %s", p.key, resp.StatusCode, strings.TrimSpace(body.String()))
	default:
		var r reply
		if err := json.Unmarshal(body.Bytes(), &r); err != nil {
			s.problem = fmt.Sprintf("%s: undecodable answer: %v", p.key, err)
			break
		}
		s.source, s.cycles = internSource(r.Source), r.Cycles
		s.problem = exp.check(p.key, &r)
	}
	return s
}

// meter accumulates the resources a measured phase uses, excluding the
// set-up between its rounds.
type meter struct {
	wall      time.Duration
	cpu       time.Duration
	allocated uint64

	start      time.Time
	startCPU   time.Duration
	startAlloc uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (m *meter) resume() {
	m.startAlloc = totalAlloc()
	m.startCPU = processCPU()
	m.start = time.Now()
}

func (m *meter) pause() {
	m.wall += time.Since(m.start)
	m.cpu += processCPU() - m.startCPU
	m.allocated += totalAlloc() - m.startAlloc
}

// liveHeap is the heap still reachable after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
