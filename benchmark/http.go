package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

const (
	matrixName = "bench"
	// verifyEvery is the response sampling rate: each client decodes its
	// first response and every verifyEvery-th after it and compares the
	// result with the direct engine's, outside the request's timing.
	verifyEvery = 8
)

// frontDoor is the second way into the system: an in-process
// serve.Server over a pool holding the workload's matrix, listening on
// loopback, and a keep-alive client. It owns the pooled engine (a second
// build of the same partition through the pool's own pipeline).
type frontDoor struct {
	pool   *serve.Pool
	handle *serve.Handle
	srv    *serve.Server
	hs     *http.Server
	served chan error // Serve's return value, received once by close
	base   string
	client *http.Client

	jsonBody []byte // {"matrix","method","k","x"} — the nrhs=1 request
	binBody  []byte // the same request as a binary frame
	bin8Body []byte // nrhs=8 frame: the same x eight times
}

// openFrontDoor registers the matrix, builds the pooled engine (timed by
// the caller as the cold acquire) and starts the server.
func (s *session) openFrontDoor() error {
	fd := &frontDoor{pool: serve.NewPool(serve.Options{Seed: methodSeed})}
	s.front = fd
	if err := fd.pool.AddMatrix(matrixName, s.in.a); err != nil {
		return fmt.Errorf("front door: %w", err)
	}
	h, err := fd.pool.Acquire(matrixName, s.w.method, s.w.k)
	if err != nil {
		return fmt.Errorf("front door: acquire: %w", err)
	}
	fd.handle = h
	fd.srv = serve.NewServer(fd.pool)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("front door: %w", err)
	}
	fd.base = "http://" + ln.Addr().String()
	fd.hs = &http.Server{Handler: fd.srv}
	fd.served = make(chan error, 1)
	go func() { fd.served <- fd.hs.Serve(ln) }()
	fd.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 8, DisableCompression: true,
	}}

	x := s.in.x
	fd.jsonBody, err = json.Marshal(map[string]any{
		"matrix": matrixName, "method": s.w.method, "k": s.w.k, "x": x,
	})
	if err != nil {
		return fmt.Errorf("front door: %w", err)
	}
	frame := func(vectors [][]float64) ([]byte, error) {
		return wire.Append(nil, &wire.Frame{
			Op: wire.OpMultiplyReq, Matrix: matrixName, Method: s.w.method, K: s.w.k, Vectors: vectors,
		})
	}
	if fd.binBody, err = frame([][]float64{x}); err != nil {
		return fmt.Errorf("front door: %w", err)
	}
	eight := make([][]float64, nrhsBlock)
	for i := range eight {
		eight[i] = x
	}
	if fd.bin8Body, err = frame(eight); err != nil {
		return fmt.Errorf("front door: %w", err)
	}
	return nil
}

// close stops the server and waits for its goroutine, then closes the
// pool (which stops the pooled engine's workers).
func (fd *frontDoor) close() {
	if fd.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = fd.hs.Shutdown(ctx) // on timeout Close below still ends Serve
		cancel()
		_ = fd.hs.Close()
		<-fd.served
		fd.client.CloseIdleConnections()
	}
	if fd.handle != nil {
		fd.handle.Release()
	}
	fd.pool.Close()
}

// Response verifiers: decode a 200 body and compare with the direct
// engine's result, bit for bit.

func (s *session) verifyJSON(body []byte) bool {
	var resp struct {
		Y []float64 `json:"y"`
	}
	return json.Unmarshal(body, &resp) == nil && sameBits(resp.Y, s.yEng)
}

func (s *session) verifyFrame(nrhs int) func([]byte) bool {
	return func(body []byte) bool {
		f, err := wire.Decode(body)
		if err != nil || f.Op != wire.OpMultiplyResp || len(f.Vectors) != nrhs {
			return false
		}
		for _, v := range f.Vectors {
			if !sameBits(v, s.yEng) {
				return false
			}
		}
		return true
	}
}

// requestKind is one of the request shapes the generator sends.
type requestKind struct {
	name   string // span name
	ctype  string
	body   []byte
	verify func([]byte) bool
}

func (s *session) jsonRequest() requestKind {
	return requestKind{"http.multiply_json", "application/json", s.front.jsonBody, s.verifyJSON}
}

func (s *session) binRequest() requestKind {
	return requestKind{"http.multiply_bin", wire.ContentType, s.front.binBody, s.verifyFrame(1)}
}

func (s *session) bin8Request() requestKind {
	return requestKind{"http.multiply_bin8", wire.ContentType, s.front.bin8Body, s.verifyFrame(nrhsBlock)}
}

// loopStats is one closed-loop window.
type loopStats struct {
	ms        []float64 // latency of every 200 response, all clients
	ok        int
	failed    int // non-200, transport error, or a sampled result that differs
	retryable int // failed responses whose envelope invited a retry
	wall      time.Duration
	busy      time.Duration // time inside a request, summed over clients
}

// perSecond is completed-OK requests over the window's wall time.
func (l loopStats) perSecond() float64 { return float64(l.ok) / l.wall.Seconds() }

// idleShare is the share of the window the clients spent outside a
// request (building nothing — bodies are prebuilt — but verifying
// sampled responses and being descheduled).
func (l loopStats) idleShare(clients int) float64 {
	return 1 - l.busy.Seconds()/(float64(clients)*l.wall.Seconds())
}

// closedLoop drives the server for window with the given number of
// clients, each sending its next request only when the previous reply
// has been read in full. Every client sends at least one request; tr
// (nil for none) records a span per request. This is the shape of the
// system's callers — solver loops and batch clients that wait for each
// product — so a slower server is offered less load.
func (s *session) closedLoop(tr *tracer, kind requestKind, parent, clients int, window time.Duration) loopStats {
	var (
		mu  sync.Mutex
		out loopStats
		wg  sync.WaitGroup
	)
	phase := tr.begin(kind.name+".loop", parent, 0)
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local loopStats
			var reply bytes.Buffer // this client's, reused: the generator's garbage is not the server's
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				var status int
				var body []byte
				var err error
				d := tr.timed(kind.name, phase, tr.nextOp(), func() {
					status, body, err = s.front.post(kind, &reply)
				})
				local.busy += d
				ok := err == nil && status == http.StatusOK
				if ok && i%verifyEvery == 0 {
					ok = kind.verify(body)
				}
				if s.tl.check(ok, "%s: status=%d err=%v", kind.name, status, err) {
					local.ok++
					local.ms = append(local.ms, float64(d.Nanoseconds())/1e6)
				} else {
					local.failed++
					if retryable(body) {
						local.retryable++
					}
				}
			}
			mu.Lock()
			out.ms = append(out.ms, local.ms...)
			out.ok += local.ok
			out.failed += local.failed
			out.retryable += local.retryable
			out.busy += local.busy
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	tr.end(phase)
	return out
}

// warmUp sends requests of both encodings until the garbage collector
// has completed two cycles under request load, or for a third of the
// measuring budget at most. The connection pool and the server's lazy
// state fill on the first request; the collector cycles matter because
// the heap only reaches its steady footprint (about twice the live heap)
// once it has been collected under load, and memory the process touches
// for the first time costs page faults that belong to no request.
func (s *session) warmUp() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	target := ms.NumGC + 2
	kinds := []requestKind{s.jsonRequest(), s.binRequest()}
	var reply bytes.Buffer
	deadline := time.Now().Add(s.slice(1.0 / 3))
	for i := 0; i < len(kinds) || (ms.NumGC < target && time.Now().Before(deadline)); i++ {
		kind := kinds[i%len(kinds)]
		status, body, err := s.front.post(kind, &reply)
		s.tl.check(err == nil && status == http.StatusOK && kind.verify(body), "warm-up %s: status=%d err=%v", kind.name, status, err)
		runtime.ReadMemStats(&ms)
	}
}

// post sends one request over loopback and reads the whole reply into
// reply, whose bytes it returns: they are valid until reply's next use.
func (fd *frontDoor) post(kind requestKind, reply *bytes.Buffer) (int, []byte, error) {
	resp, err := fd.client.Post(fd.base+"/v1/multiply", kind.ctype, bytes.NewReader(kind.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply.Reset()
	_, err = reply.ReadFrom(resp.Body)
	return resp.StatusCode, reply.Bytes(), err
}

// retryable reports whether a non-200 body is the v1 error envelope with
// its retryable flag set.
func retryable(body []byte) bool {
	var env struct {
		Retryable bool `json:"retryable"`
	}
	return json.Unmarshal(body, &env) == nil && env.Retryable
}

// bodyWriter is the least http.ResponseWriter that keeps what a handler
// writes, for timing Server.ServeHTTP with no socket underneath.
type bodyWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *bodyWriter) Header() http.Header         { return w.header }
func (w *bodyWriter) WriteHeader(status int)      { w.status = status }
func (w *bodyWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// handle calls the server's handler directly — the onion's middle
// layer: decode, admission, scheduling, engine, encode, and no transport.
func (s *session) handle(kind requestKind, parent int) (time.Duration, bool) {
	req, err := http.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(kind.body))
	if err != nil {
		return 0, false
	}
	req.Header.Set("Content-Type", kind.ctype)
	w := &bodyWriter{header: make(http.Header), status: http.StatusOK}
	d := s.tr.timed("serve.handler", parent, s.tr.nextOp(), func() { s.front.srv.ServeHTTP(w, req) })
	return d, w.status == http.StatusOK && kind.verify(w.body.Bytes())
}

// serveCounters is the part of GET /metrics (JSON) the ledger reads.
type serveCounters struct {
	Requests uint64 `json:"requests"`
	Batches  uint64 `json:"batches"`
	Engines  []struct {
		Overloads uint64 `json:"overloads"`
	} `json:"engines"`
}

func (c serveCounters) overloads() uint64 {
	var n uint64
	for _, e := range c.Engines {
		n += e.Overloads
	}
	return n
}

func (fd *frontDoor) counters() (serveCounters, error) {
	var c serveCounters
	resp, err := fd.client.Get(fd.base + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return c, fmt.Errorf("GET /metrics: %w", err)
	}
	return c, nil
}
