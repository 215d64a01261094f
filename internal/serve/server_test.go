package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sparse"
)

func newTestServer(t *testing.T) (*httptest.Server, *Pool) {
	t.Helper()
	return newTestServerOpt(t, Options{Seed: 1})
}

func newTestServerOpt(t *testing.T, opt Options) (*httptest.Server, *Pool) {
	t.Helper()
	p := NewPool(opt)
	t.Cleanup(p.Close)
	if err := p.AddMatrix("lap", testMatrix(t, 14, 14)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(p))
	t.Cleanup(ts.Close)
	return ts, p
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func TestHTTPMultiply(t *testing.T) {
	ts, p := newTestServer(t)
	a, err := p.Matrix("lap")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	x := randVec(r, a.Cols)

	resp, body := postJSON(t, ts.URL+"/v1/multiply", multiplyRequest{
		engineRequest: engineRequest{Matrix: "lap", Method: "s2d", K: 4}, X: x,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var mr multiplyResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Schedule != "fused" || mr.Method != "s2D" || mr.K != 4 {
		t.Fatalf("response meta = %+v", mr)
	}
	want := make([]float64, a.Rows)
	a.MulVec(x, want)
	for i := range want {
		if math.Abs(mr.Y[i]-want[i]) > 1e-9 {
			t.Fatalf("y[%d] = %v, want %v", i, mr.Y[i], want[i])
		}
	}
}

func TestHTTPMultiplyDefaults(t *testing.T) {
	ts, _ := newTestServer(t)
	x := make([]float64, 14*14)
	resp, body := postJSON(t, ts.URL+"/v1/multiply", multiplyRequest{
		engineRequest: engineRequest{Matrix: "lap"}, X: x, // method and K omitted
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name string
		req  multiplyRequest
		want int
	}{
		{"unknown matrix", multiplyRequest{engineRequest: engineRequest{Matrix: "nope"}, X: make([]float64, 196)}, http.StatusNotFound},
		{"unknown method", multiplyRequest{engineRequest: engineRequest{Matrix: "lap", Method: "bogus"}, X: make([]float64, 196)}, http.StatusNotFound},
		{"bad dims", multiplyRequest{engineRequest: engineRequest{Matrix: "lap"}, X: make([]float64, 7)}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/multiply", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q not structured", tc.name, body)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/multiply", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPSolve(t *testing.T) {
	ts, p := newTestServer(t)
	a, err := p.Matrix("lap")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	b := randVec(r, a.Rows)

	resp, body := postJSON(t, ts.URL+"/v1/solve", solveRequest{
		engineRequest: engineRequest{Matrix: "lap", Method: "s2d", K: 4},
		B:             b, Tol: 1e-10, MaxIter: 2000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr solveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Converged {
		t.Fatalf("CG did not converge: %+v", sr)
	}
	// Verify Ax ≈ b against the serial reference.
	ax := make([]float64, a.Rows)
	a.MulVec(sr.X, ax)
	var bn, rn float64
	for i := range b {
		d := ax[i] - b[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	if math.Sqrt(rn/bn) > 1e-8 {
		t.Fatalf("relative residual %v too large", math.Sqrt(rn/bn))
	}
}

func TestHTTPSolveNonSPDIsClientError(t *testing.T) {
	ts, p := newTestServer(t)
	// A matrix with a negative diagonal is indefinite: CG must refuse,
	// and the refusal is the request's fault (422), not a server fault.
	c := sparse.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		c.Add(i, i, -1)
	}
	if err := p.AddMatrix("neg", c.ToCSR()); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", solveRequest{
		engineRequest: engineRequest{Matrix: "neg", K: 2},
		B:             []float64{1, 2, 3, 4},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%s)", resp.StatusCode, body)
	}
}

func TestHTTPMethodsAndMetrics(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/methods")
	if err != nil {
		t.Fatal(err)
	}
	var mr methodsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(mr.Methods) < 9 {
		t.Fatalf("methods listed = %d, want >= 9 (the paper set)", len(mr.Methods))
	}
	if len(mr.Matrices) != 1 || mr.Matrices[0].Name != "lap" {
		t.Fatalf("matrices = %+v", mr.Matrices)
	}

	// Drive one request, then verify /metrics reflects it.
	x := make([]float64, mr.Matrices[0].Cols)
	if resp, body := postJSON(t, ts.URL+"/v1/multiply", multiplyRequest{
		engineRequest: engineRequest{Matrix: "lap"}, X: x,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("multiply: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var pm PoolMetrics
	if err := json.NewDecoder(resp.Body).Decode(&pm); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pm.Requests != 1 || len(pm.Engines) != 1 || pm.Engines[0].Schedule == "" {
		t.Fatalf("metrics = %+v, want 1 request on 1 engine", pm)
	}
}

func TestHTTPUpload(t *testing.T) {
	ts, _ := newTestServer(t)
	m := testMatrix(t, 6, 6)
	var mtx bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mtx, m); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/matrices?name=uploaded", "text/plain", &mtx)
	if err != nil {
		t.Fatal(err)
	}
	var mi MatrixInfo
	if err := json.NewDecoder(resp.Body).Decode(&mi); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || mi.Rows != 36 {
		t.Fatalf("upload: status %d info %+v", resp.StatusCode, mi)
	}
	// The uploaded matrix serves immediately.
	x := make([]float64, 36)
	if resp, body := postJSON(t, ts.URL+"/v1/multiply", multiplyRequest{
		engineRequest: engineRequest{Matrix: "uploaded", K: 2}, X: x,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("multiply on upload: %d %s", resp.StatusCode, body)
	}
	// Garbage uploads are rejected cleanly.
	resp, err = http.Post(ts.URL+"/v1/matrices?name=bad", "text/plain", strings.NewReader("not a matrix"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload: status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPOverload(t *testing.T) {
	p := NewPool(Options{Seed: 1, MaxQueue: 1, MaxBatch: 64, MaxWait: time.Hour})
	t.Cleanup(p.Close)
	if err := p.AddMatrix("lap", testMatrix(t, 10, 10)); err != nil {
		t.Fatal(err)
	}
	// Pin the queue: acquire the engine directly and stuff its queue so
	// the HTTP request hits admission control.
	h, err := p.Acquire("lap", "s2d", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	s := h.e.sched
	tn := p.Tenants().Default()
	s.mu.Lock()
	// Synthetic occupant with a fresh window: the runner sits out MaxWait
	// (an hour), so the next submission must hit admission control.
	s.oldest = time.Now()
	q := s.queueForLocked(tn)
	q.reqs = append(q.reqs, &request{tn: tn, done: make(chan struct{}), enq: s.oldest})
	s.nq++
	s.mu.Unlock()

	ts := httptest.NewServer(NewServer(p))
	t.Cleanup(ts.Close)
	resp, body := postJSON(t, ts.URL+"/v1/multiply", multiplyRequest{
		engineRequest: engineRequest{Matrix: "lap"}, X: make([]float64, 100),
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	// Unstuff so close() can drain.
	s.mu.Lock()
	s.tq = make(map[*Tenant]*tenantQueue)
	s.nq = 0
	s.mu.Unlock()
}

// tallTestMatrix registers a rectangular (tall) constraint-style matrix.
func tallTestMatrix(t *testing.T, p *Pool, name string, rows, cols int) *sparse.CSR {
	t.Helper()
	r := rand.New(rand.NewSource(71))
	c := sparse.NewCOO(rows, cols)
	for j := 0; j < cols; j++ {
		c.Add(j, j, 4+r.Float64())
	}
	for i := cols; i < rows; i++ {
		for k := 0; k < 3; k++ {
			c.Add(i, r.Intn(cols), r.Float64()*2-1)
		}
	}
	a := c.ToCSR()
	if err := p.AddMatrix(name, a); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestHTTPSolveRectangularCGRejected pins the shape guard: an explicit
// CG request on a rectangular system is a 422 naming the shape — not a
// mid-solve engine failure.
func TestHTTPSolveRectangularCGRejected(t *testing.T) {
	ts, p := newTestServer(t)
	a := tallTestMatrix(t, p, "tall", 90, 30)
	resp, body := postJSON(t, ts.URL+"/v1/solve", solveRequest{
		engineRequest: engineRequest{Matrix: "tall", K: 4},
		B:             make([]float64, a.Rows), Solver: "cg",
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%s)", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "90x30") || !strings.Contains(eb.Error, "lsqr") {
		t.Fatalf("error %q must name the shape and the least-squares solvers", eb.Error)
	}
}

// TestHTTPSolveRectangularRoutesToLSQR is the end-to-end acceptance
// path: a rectangular system with no solver field routes to LSQR and
// converges, solving through the engine's transpose plan.
func TestHTTPSolveRectangularRoutesToLSQR(t *testing.T) {
	ts, p := newTestServer(t)
	a := tallTestMatrix(t, p, "tall", 120, 40)
	r := rand.New(rand.NewSource(73))
	want := randVec(r, a.Cols)
	b := make([]float64, a.Rows)
	a.MulVec(want, b)

	resp, body := postJSON(t, ts.URL+"/v1/solve", solveRequest{
		engineRequest: engineRequest{Matrix: "tall", Method: "s2d", K: 4},
		B:             b, Tol: 1e-12, MaxIter: 2000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr solveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Solver != "lsqr" {
		t.Fatalf("solver = %q, want lsqr (auto-routed)", sr.Solver)
	}
	if !sr.Converged {
		t.Fatalf("LSQR did not converge: %+v", sr)
	}
	for j := range want {
		if math.Abs(sr.X[j]-want[j]) > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", j, sr.X[j], want[j])
		}
	}
}

// TestHTTPSolveCGNRExplicit exercises the explicit cgnr route on the
// same rectangular system.
func TestHTTPSolveCGNRExplicit(t *testing.T) {
	ts, p := newTestServer(t)
	a := tallTestMatrix(t, p, "tall", 100, 25)
	r := rand.New(rand.NewSource(79))
	want := randVec(r, a.Cols)
	b := make([]float64, a.Rows)
	a.MulVec(want, b)

	resp, body := postJSON(t, ts.URL+"/v1/solve", solveRequest{
		engineRequest: engineRequest{Matrix: "tall", K: 4},
		B:             b, Solver: "CGNR", Tol: 1e-12, MaxIter: 2000,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr solveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Solver != "cgnr" || !sr.Converged {
		t.Fatalf("response = %+v, want converged cgnr", sr)
	}
}

// TestHTTPSolveUnknownSolver is a 400 naming the supported solvers.
func TestHTTPSolveUnknownSolver(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/solve", solveRequest{
		engineRequest: engineRequest{Matrix: "lap"},
		B:             make([]float64, 196), Solver: "sor",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
	}
}

// countingReader reports how many bytes the handler pulled off the body.
type countingReader struct {
	r    io.Reader
	read int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += n
	return n, err
}

// TestReadBody pins the body reader's three regimes: a declared length
// is read once into a buffer of exactly that size; a declared length
// over the limit is refused before a byte is read; an undeclared
// (chunked) length streams through the same limit.
func TestReadBody(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 64) // 1 KiB
	for _, tc := range []struct {
		name     string
		declared int64 // Content-Length; -1 is chunked
		limit    int64
		wantErr  bool
		tooLarge bool
		wantRead int
	}{
		{name: "declared", declared: 1024, limit: 4096, wantRead: 1024},
		{name: "declared at the limit", declared: 1024, limit: 1024, wantRead: 1024},
		{name: "declared over the limit", declared: 1024, limit: 1023, wantErr: true, tooLarge: true, wantRead: 0},
		{name: "declared but short", declared: 2048, limit: 4096, wantErr: true, wantRead: 1024},
		{name: "chunked", declared: -1, limit: 4096, wantRead: 1024},
		{name: "chunked over the limit", declared: -1, limit: 1000, wantErr: true, tooLarge: true, wantRead: 1001},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := &countingReader{r: bytes.NewReader(payload)}
			r := httptest.NewRequest("POST", "/v1/multiply", body)
			r.ContentLength = tc.declared
			got, err := readBody(httptest.NewRecorder(), r, tc.limit)
			var tooLarge *http.MaxBytesError
			if (err != nil) != tc.wantErr || errors.As(err, &tooLarge) != tc.tooLarge {
				t.Fatalf("err = %v; want error %v, *MaxBytesError %v", err, tc.wantErr, tc.tooLarge)
			}
			if body.read != tc.wantRead {
				t.Fatalf("read %d bytes off the body, want %d", body.read, tc.wantRead)
			}
			if err != nil {
				return
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("body differs: %d bytes, want %d", len(got), len(payload))
			}
			if tc.declared >= 0 && cap(got) != len(payload) {
				t.Fatalf("declared length %d read into a %d-byte buffer: presized reads do not over-allocate", tc.declared, cap(got))
			}
		})
	}
}
