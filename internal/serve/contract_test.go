package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve/faultinject"
	"repro/internal/sparse"
	"repro/internal/wire"
)

// contractEnv is what every error response must decode into.
func decodeEnvelope(t *testing.T, body []byte) ErrorEnvelope {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body %q is not the envelope: %v", body, err)
	}
	if env.Error == "" || env.Code == "" {
		t.Fatalf("envelope %q missing error/code", body)
	}
	return env
}

func mustFrame(t *testing.T, f *wire.Frame) []byte {
	t.Helper()
	buf, err := wire.Append(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestHTTPContractTable enumerates every (endpoint, error code) pair the
// API can produce on request-shaped input, pinning status, envelope
// shape, the retryable flag, and Retry-After presence. Engine-runtime
// codes (quarantined, engine_fault) are pinned by fault_test.go; the
// overload and deadline rows here stage the queue states that produce
// them.
func TestHTTPContractTable(t *testing.T) {
	keyedReg := func(t *testing.T) *TenantRegistry {
		r, err := NewTenantRegistry(TenantSpec{Name: "alice", Key: "ka"})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	jsonBody := func(v any) func(t *testing.T) []byte {
		return func(t *testing.T) []byte {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	const mmHeader = "%%MatrixMarket matrix coordinate real general\n"
	x196 := make([]float64, 196)
	// 4·1e308 overflows in row 0 whatever the order of its sum; every
	// other row stays finite.
	overflow196 := make([]float64, 196)
	overflow196[0] = 1e308

	cases := []struct {
		name          string
		opt           Options // zero → default open pool
		maxUpload     int64   // override Server.MaxUploadBytes when > 0
		setup         func(t *testing.T, p *Pool, s *Server)
		method, path  string
		contentType   string
		auth          string
		body          func(t *testing.T) []byte
		wantStatus    int
		wantCode      string
		wantRetryable bool
		wantRetryHdr  bool
		wantError     string // the envelope's message, where it is contract
	}{
		// -- /v1/multiply --
		{name: "multiply malformed json", method: "POST", path: "/v1/multiply",
			body:       func(*testing.T) []byte { return []byte("{nope") },
			wantStatus: 400, wantCode: CodeBadRequest},
		{name: "multiply x and xs", method: "POST", path: "/v1/multiply",
			body:       jsonBody(multiplyRequest{engineRequest: engineRequest{Matrix: "lap"}, X: x196, Xs: [][]float64{x196}}),
			wantStatus: 400, wantCode: CodeBadRequest},
		{name: "multiply binary garbage", method: "POST", path: "/v1/multiply",
			contentType: wire.ContentType,
			body:        func(*testing.T) []byte { return []byte("not a frame") },
			wantStatus:  400, wantCode: CodeBadRequest},
		{name: "multiply binary wrong op", method: "POST", path: "/v1/multiply",
			contentType: wire.ContentType,
			body: func(t *testing.T) []byte {
				return mustFrame(t, &wire.Frame{Op: wire.OpSolveReq, Matrix: "lap", Vectors: [][]float64{x196}})
			},
			wantStatus: 400, wantCode: CodeBadRequest},
		{name: "multiply bad dimension", method: "POST", path: "/v1/multiply",
			body:       jsonBody(multiplyRequest{engineRequest: engineRequest{Matrix: "lap"}, X: make([]float64, 7)}),
			wantStatus: 400, wantCode: CodeBadDimension},
		{name: "multiply max empty vectors", method: "POST", path: "/v1/multiply",
			body:       jsonBody(multiplyRequest{engineRequest: engineRequest{Matrix: "lap"}, Xs: make([][]float64, wire.MaxVectors)}),
			wantStatus: 400, wantCode: CodeBadDimension},
		{name: "multiply too large", method: "POST", path: "/v1/multiply",
			maxUpload:  256, // the declared length alone is over: refused unread
			body:       jsonBody(multiplyRequest{engineRequest: engineRequest{Matrix: "lap"}, X: x196}),
			wantStatus: 413, wantCode: CodePayloadTooLarge},
		{name: "multiply unknown matrix", method: "POST", path: "/v1/multiply",
			body:       jsonBody(multiplyRequest{engineRequest: engineRequest{Matrix: "nope"}, X: x196}),
			wantStatus: 404, wantCode: CodeUnknownMatrix},
		{name: "multiply unknown method", method: "POST", path: "/v1/multiply",
			body:       jsonBody(multiplyRequest{engineRequest: engineRequest{Matrix: "lap", Method: "bogus"}, X: x196}),
			wantStatus: 404, wantCode: CodeUnknownMethod},
		{name: "multiply missing auth", method: "POST", path: "/v1/multiply",
			opt:        Options{Tenants: nil}, // replaced by keyed below
			body:       jsonBody(multiplyRequest{engineRequest: engineRequest{Matrix: "lap"}, X: x196}),
			wantStatus: 401, wantCode: CodeUnauthorized,
			setup: func(t *testing.T, p *Pool, s *Server) { p.opt.Tenants = keyedReg(t) }},
		{name: "multiply bad key", method: "POST", path: "/v1/multiply",
			auth:       "Bearer wrong",
			body:       jsonBody(multiplyRequest{engineRequest: engineRequest{Matrix: "lap"}, X: x196}),
			wantStatus: 401, wantCode: CodeUnauthorized,
			setup: func(t *testing.T, p *Pool, s *Server) { p.opt.Tenants = keyedReg(t) }},
		{name: "multiply overloaded", method: "POST", path: "/v1/multiply",
			opt: Options{MaxQueue: 1, MaxBatch: 64, MaxWait: time.Hour},
			setup: func(t *testing.T, p *Pool, s *Server) {
				h, err := p.Acquire("lap", "s2d", 4)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(h.Release)
				sc := h.e.sched
				tn := p.Tenants().Default()
				sc.mu.Lock()
				sc.oldest = time.Now()
				q := sc.queueForLocked(tn)
				q.reqs = append(q.reqs, &request{tn: tn, done: make(chan struct{}), enq: sc.oldest})
				sc.nq++
				sc.mu.Unlock()
				t.Cleanup(func() {
					sc.mu.Lock()
					sc.tq = make(map[*Tenant]*tenantQueue)
					sc.nq = 0
					sc.mu.Unlock()
				})
			},
			body:       jsonBody(multiplyRequest{engineRequest: engineRequest{Matrix: "lap"}, X: x196}),
			wantStatus: 429, wantCode: CodeOverloaded, wantRetryable: true, wantRetryHdr: true},
		{name: "multiply deadline", method: "POST", path: "/v1/multiply",
			opt: Options{MaxBatch: 1, MaxWait: time.Millisecond, FlushDelay: 500 * time.Millisecond,
				Injector: faultinject.New(faultinject.Rule{Point: "flush.slow", Nth: 1})},
			setup: func(t *testing.T, p *Pool, s *Server) {
				h, err := p.Acquire("lap", "s2d", 4)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(h.Release)
				done := make(chan struct{})
				go func() { // first request absorbs the slow flush and holds the runner
					defer close(done)
					h.Multiply(context.Background(), make([]float64, 196))
				}()
				t.Cleanup(func() { <-done })
				time.Sleep(50 * time.Millisecond)
			},
			body: jsonBody(multiplyRequest{engineRequest: engineRequest{Matrix: "lap"},
				X: x196, DeadlineMs: 50}),
			wantStatus: 504, wantCode: CodeDeadline, wantRetryable: true},
		// The longest deadline a client can ask for is not the shortest: its
		// nanoseconds overflow an int64 and used to wrap into the past.
		{name: "multiply deadline_ms overflow", method: "POST", path: "/v1/multiply",
			body: jsonBody(multiplyRequest{engineRequest: engineRequest{Matrix: "lap"},
				X: x196, DeadlineMs: 9300000000000}),
			wantStatus: 200},

		// A finite request whose product is not: JSON has no literal for it,
		// and the reply is refused whole, before a byte of it is written.
		{name: "multiply non-finite y", method: "POST", path: "/v1/multiply",
			body:       jsonBody(multiplyRequest{engineRequest: engineRequest{Matrix: "lap"}, X: overflow196}),
			wantStatus: 500, wantCode: CodeInternal,
			wantError: "wire: result y[0] is +Inf: not representable in JSON; use application/x-spmv-frame"},
		{name: "multiply non-finite ys", method: "POST", path: "/v1/multiply",
			body:       jsonBody(multiplyRequest{engineRequest: engineRequest{Matrix: "lap"}, Xs: [][]float64{x196, overflow196}}),
			wantStatus: 500, wantCode: CodeInternal,
			wantError: "wire: result ys[1][0] is +Inf: not representable in JSON; use application/x-spmv-frame"},

		// -- /v1/solve --
		{name: "solve malformed json", method: "POST", path: "/v1/solve",
			body:       func(*testing.T) []byte { return []byte("{nope") },
			wantStatus: 400, wantCode: CodeBadRequest},
		{name: "solve unknown solver", method: "POST", path: "/v1/solve",
			body:       jsonBody(solveRequest{engineRequest: engineRequest{Matrix: "lap"}, B: x196, Solver: "gmres"}),
			wantStatus: 400, wantCode: CodeBadRequest},
		{name: "solve bad dimension", method: "POST", path: "/v1/solve",
			body:       jsonBody(solveRequest{engineRequest: engineRequest{Matrix: "lap"}, B: make([]float64, 3)}),
			wantStatus: 400, wantCode: CodeBadDimension},
		{name: "solve unknown matrix", method: "POST", path: "/v1/solve",
			body:       jsonBody(solveRequest{engineRequest: engineRequest{Matrix: "nope"}, B: x196}),
			wantStatus: 404, wantCode: CodeUnknownMatrix},
		{name: "solve cg on rectangular", method: "POST", path: "/v1/solve",
			setup: func(t *testing.T, p *Pool, s *Server) { tallTestMatrix(t, p, "tall", 90, 30) },
			body: jsonBody(solveRequest{engineRequest: engineRequest{Matrix: "tall", K: 4},
				B: make([]float64, 90), Solver: "cg"}),
			wantStatus: 422, wantCode: CodeUnprocessable},
		{name: "solve missing auth", method: "POST", path: "/v1/solve",
			body:       jsonBody(solveRequest{engineRequest: engineRequest{Matrix: "lap"}, B: x196}),
			wantStatus: 401, wantCode: CodeUnauthorized,
			setup: func(t *testing.T, p *Pool, s *Server) { p.opt.Tenants = keyedReg(t) }},
		{name: "solve binary multi rhs", method: "POST", path: "/v1/solve",
			contentType: wire.ContentType,
			body: func(t *testing.T) []byte {
				return mustFrame(t, &wire.Frame{Op: wire.OpSolveReq, Matrix: "lap",
					Vectors: [][]float64{x196, x196}})
			},
			wantStatus: 400, wantCode: CodeBadRequest},

		// -- POST /v1/matrices --
		{name: "upload garbage", method: "POST", path: "/v1/matrices?name=bad",
			body:       func(*testing.T) []byte { return []byte("not a matrix") },
			wantStatus: 400, wantCode: CodeBadRequest},
		// A size line that cannot be true is a parse error, not a panic in
		// make() and a reset connection.
		{name: "upload negative count", method: "POST", path: "/v1/matrices?name=bad",
			body:       func(*testing.T) []byte { return []byte(mmHeader + "1 1 -1\n") },
			wantStatus: 400, wantCode: CodeBadRequest},
		{name: "upload impossible count", method: "POST", path: "/v1/matrices?name=bad",
			body:       func(*testing.T) []byte { return []byte(mmHeader + "1 1 4611686018427387904\n") },
			wantStatus: 400, wantCode: CodeBadRequest},
		{name: "upload negative dimension", method: "POST", path: "/v1/matrices?name=bad",
			body:       func(*testing.T) []byte { return []byte(mmHeader + "-5 1 0\n") },
			wantStatus: 400, wantCode: CodeBadRequest},
		// Nor may it cost memory its entries did not pay for: this one would
		// be a 16 GB row-pointer array, an OOM that takes the process down.
		{name: "upload empty giant", method: "POST", path: "/v1/matrices?name=bad",
			body:       func(*testing.T) []byte { return []byte(mmHeader + "2000000000 1 0\n") },
			wantStatus: 400, wantCode: CodeBadRequest},
		{name: "upload blank name", method: "POST", path: "/v1/matrices?name=%20%20",
			body:       func(*testing.T) []byte { return []byte("x") },
			wantStatus: 400, wantCode: CodeBadRequest},
		{name: "upload path separator", method: "POST", path: "/v1/matrices?name=a%2Fb",
			body:       func(*testing.T) []byte { return []byte("x") },
			wantStatus: 400, wantCode: CodeBadRequest},
		{name: "upload long name", method: "POST", path: "/v1/matrices?name=" + strings.Repeat("a", 129),
			body:       func(*testing.T) []byte { return []byte("x") },
			wantStatus: 400, wantCode: CodeBadRequest},
		{name: "upload duplicate name", method: "POST", path: "/v1/matrices?name=lap",
			body: func(t *testing.T) []byte {
				var buf bytes.Buffer
				if err := sparse.WriteMatrixMarket(&buf, testMatrix(t, 6, 6)); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			},
			wantStatus: 409, wantCode: CodeConflict},
		{name: "upload too large", method: "POST", path: "/v1/matrices?name=big",
			maxUpload: 64,
			body: func(t *testing.T) []byte {
				// A well-formed matrix whose body crosses the limit while
				// streaming entries — the limit must trip, not a parse error.
				var buf bytes.Buffer
				if err := sparse.WriteMatrixMarket(&buf, testMatrix(t, 8, 8)); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			},
			wantStatus: 413, wantCode: CodePayloadTooLarge},
		{name: "upload missing auth", method: "POST", path: "/v1/matrices?name=x",
			body:       func(*testing.T) []byte { return []byte("x") },
			wantStatus: 401, wantCode: CodeUnauthorized,
			setup: func(t *testing.T, p *Pool, s *Server) { p.opt.Tenants = keyedReg(t) }},

		// -- GET /v1/matrices/{name} --
		{name: "matrix get unknown", method: "GET", path: "/v1/matrices/nope",
			wantStatus: 404, wantCode: CodeUnknownMatrix},

		// -- DELETE /v1/matrices/{name} --
		{name: "matrix delete unknown", method: "DELETE", path: "/v1/matrices/nope",
			wantStatus: 404, wantCode: CodeUnknownMatrix},
		{name: "matrix delete pinned", method: "DELETE", path: "/v1/matrices/lap",
			setup: func(t *testing.T, p *Pool, s *Server) {
				h, err := p.Acquire("lap", "s2d", 4)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(h.Release)
			},
			wantStatus: 409, wantCode: CodeConflict},
		{name: "matrix delete missing auth", method: "DELETE", path: "/v1/matrices/lap",
			wantStatus: 401, wantCode: CodeUnauthorized,
			setup: func(t *testing.T, p *Pool, s *Server) { p.opt.Tenants = keyedReg(t) }},

		// -- /readyz --
		{name: "readyz draining", method: "GET", path: "/readyz",
			setup:      func(t *testing.T, p *Pool, s *Server) { s.SetDraining(true) },
			wantStatus: 503, wantCode: CodeDraining, wantRetryable: true},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			if opt.Seed == 0 {
				opt.Seed = 1
			}
			p := NewPool(opt)
			t.Cleanup(p.Close)
			if err := p.AddMatrix("lap", testMatrix(t, 14, 14)); err != nil {
				t.Fatal(err)
			}
			srv := NewServer(p)
			if tc.maxUpload > 0 {
				srv.MaxUploadBytes = tc.maxUpload
			}
			if tc.setup != nil {
				tc.setup(t, p, srv)
			}
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)

			var body []byte
			if tc.body != nil {
				body = tc.body(t)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			ct := tc.contentType
			if ct == "" {
				ct = "application/json"
			}
			req.Header.Set("Content-Type", ct)
			if tc.auth != "" {
				req.Header.Set("Authorization", tc.auth)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			out.ReadFrom(resp.Body)
			resp.Body.Close()

			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.wantStatus, out.Bytes())
			}
			if tc.wantStatus == http.StatusOK {
				return // a row pinning that a request is not an error
			}
			env := decodeEnvelope(t, out.Bytes())
			if env.Code != tc.wantCode {
				t.Fatalf("code %q, want %q (%s)", env.Code, tc.wantCode, out.Bytes())
			}
			if tc.wantError != "" && env.Error != tc.wantError {
				t.Fatalf("error %q, want %q", env.Error, tc.wantError)
			}
			if env.Retryable != tc.wantRetryable {
				t.Fatalf("retryable %v, want %v", env.Retryable, tc.wantRetryable)
			}
			if tc.wantRetryHdr {
				if resp.Header.Get("Retry-After") == "" || resp.Header.Get("X-Retry-After-Ms") == "" {
					t.Fatalf("retryable %s missing Retry-After headers", env.Code)
				}
				if env.RetryAfterMs <= 0 {
					t.Fatalf("retry_after_ms = %d, want > 0", env.RetryAfterMs)
				}
			}
			// Error responses are the JSON envelope even on binary requests.
			if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "application/json") {
				t.Fatalf("error Content-Type %q, want application/json", got)
			}
		})
	}
}

// postRaw sends body with the given content type and returns the
// response with its body drained.
func postRaw(t *testing.T, url, contentType, auth string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if auth != "" {
		req.Header.Set("Authorization", auth)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, out.Bytes()
}

// TestJSONBinaryBitIdentical is the tentpole contract: the same
// multi-RHS multiply through JSON and through the binary frame path
// returns bit-identical floats, forward and transpose, with and without
// a linger — on the small matrix, whose vectors the JSON codec handles
// inline, and on one whose 10 000-value vectors (200 kB of text each) it
// parses and writes in segments wherever GOMAXPROCS allows (this test
// runs under -race, and again at GOMAXPROCS=1 in CI's one-executor step).
func TestJSONBinaryBitIdentical(t *testing.T) {
	forEachLingerMode(t, testJSONBinaryBitIdentical)
}

func testJSONBinaryBitIdentical(t *testing.T, opt Options) {
	opt.Seed = 1
	ts, p := newTestServerOpt(t, opt)
	if err := p.AddMatrix("lap100", testMatrix(t, 100, 100)); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		matrix    string
		transpose bool
	}{{"lap", false}, {"lap", true}, {"lap100", false}, {"lap100", true}} {
		a, err := p.Matrix(tc.matrix)
		if err != nil {
			t.Fatal(err)
		}
		transpose := tc.transpose
		n := a.Cols
		if transpose {
			n = a.Rows
		}
		xs := make([][]float64, 8)
		for i := range xs {
			xs[i] = randVec(r, n)
		}

		jreq, _ := json.Marshal(multiplyRequest{
			engineRequest: engineRequest{Matrix: tc.matrix, Method: "s2d", K: 4},
			Xs:            xs, Transpose: transpose,
		})
		resp, jbody := postRaw(t, ts.URL+"/v1/multiply", "application/json", "", jreq)
		if resp.StatusCode != 200 {
			t.Fatalf("json multiply: %d %s", resp.StatusCode, jbody)
		}
		// Like the frame below: the length is declared, nothing is chunked.
		if resp.ContentLength != int64(len(jbody)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("json response Content-Length %d, Transfer-Encoding %v; body is %d bytes",
				resp.ContentLength, resp.TransferEncoding, len(jbody))
		}
		var jresp multiplyResponse
		if err := json.Unmarshal(jbody, &jresp); err != nil {
			t.Fatal(err)
		}
		// The reply is what json.Marshal makes of it, byte for byte.
		if again, _ := json.Marshal(jresp); !bytes.Equal(append(again, '\n'), jbody) {
			t.Fatalf("%s: json reply is not json.Marshal of its own decoding", tc.matrix)
		}

		breq := mustFrame(t, &wire.Frame{
			Op: wire.OpMultiplyReq, Matrix: tc.matrix, Method: "s2d", K: 4,
			Vectors: xs, Transpose: transpose,
		})
		resp, bbody := postRaw(t, ts.URL+"/v1/multiply", wire.ContentType, "", breq)
		if resp.StatusCode != 200 {
			t.Fatalf("binary multiply: %d %s", resp.StatusCode, bbody)
		}
		if got := resp.Header.Get("Content-Type"); got != wire.ContentType {
			t.Fatalf("binary response Content-Type %q", got)
		}
		// Streamed, not chunked: the frame's length is declared up front.
		if resp.ContentLength != int64(len(bbody)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("binary response Content-Length %d, Transfer-Encoding %v; body is %d bytes",
				resp.ContentLength, resp.TransferEncoding, len(bbody))
		}
		bframe, err := wire.Decode(bbody)
		if err != nil {
			t.Fatal(err)
		}
		if bframe.Op != wire.OpMultiplyResp || bframe.Transpose != transpose {
			t.Fatalf("response frame meta: %+v", bframe)
		}

		if len(jresp.Ys) != 8 || len(bframe.Vectors) != 8 {
			t.Fatalf("nrhs: json %d binary %d, want 8", len(jresp.Ys), len(bframe.Vectors))
		}
		for i := range jresp.Ys {
			for j := range jresp.Ys[i] {
				jb := math.Float64bits(jresp.Ys[i][j])
				bb := math.Float64bits(bframe.Vectors[i][j])
				if jb != bb {
					t.Fatalf("%s transpose=%v ys[%d][%d]: json bits %x, binary bits %x", tc.matrix, transpose, i, j, jb, bb)
				}
			}
		}

		// The single-vector form takes the same paths: "x" in, "y" out.
		jreq, _ = json.Marshal(multiplyRequest{
			engineRequest: engineRequest{Matrix: tc.matrix, Method: "s2d", K: 4},
			X:             xs[0], Transpose: transpose,
		})
		resp, jbody = postRaw(t, ts.URL+"/v1/multiply", "application/json", "", jreq)
		if resp.StatusCode != 200 {
			t.Fatalf("json multiply x: %d %s", resp.StatusCode, jbody)
		}
		jresp = multiplyResponse{}
		if err := json.Unmarshal(jbody, &jresp); err != nil {
			t.Fatal(err)
		}
		if len(jresp.Y) != len(bframe.Vectors[0]) {
			t.Fatalf("%s: y has %d values, want %d", tc.matrix, len(jresp.Y), len(bframe.Vectors[0]))
		}
		for j := range jresp.Y {
			if math.Float64bits(jresp.Y[j]) != math.Float64bits(bframe.Vectors[0][j]) {
				t.Fatalf("%s transpose=%v y[%d]: json %v, binary %v", tc.matrix, transpose, j, jresp.Y[j], bframe.Vectors[0][j])
			}
		}
	}

	// A product JSON cannot carry (see the contract table) still goes out
	// as a frame, infinity and all.
	x := make([]float64, 196)
	x[0] = 1e308
	resp, body := postRaw(t, ts.URL+"/v1/multiply", wire.ContentType, "",
		mustFrame(t, &wire.Frame{Op: wire.OpMultiplyReq, Matrix: "lap", Vectors: [][]float64{x}}))
	if resp.StatusCode != 200 {
		t.Fatalf("binary multiply with an overflowing product: %d %s", resp.StatusCode, body)
	}
	if f, err := wire.Decode(body); err != nil || !math.IsInf(f.Vectors[0][0], 1) {
		t.Fatalf("overflowing product: frame %+v, err %v; want y[0] = +Inf", f, err)
	}
}

// TestHTTPMultiRHSAndTranspose checks the JSON xs/transpose surface
// against the serial reference.
func TestHTTPMultiRHSAndTranspose(t *testing.T) {
	ts, p := newTestServer(t)
	a, err := p.Matrix("lap")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	xs := make([][]float64, 3)
	for i := range xs {
		xs[i] = randVec(r, a.Cols)
	}
	resp, body := postJSON(t, ts.URL+"/v1/multiply", multiplyRequest{
		engineRequest: engineRequest{Matrix: "lap"}, Xs: xs,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("multi-RHS: %d %s", resp.StatusCode, body)
	}
	var mr multiplyResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Y != nil || len(mr.Ys) != 3 {
		t.Fatalf("multi-RHS response shape: y=%v ys=%d", mr.Y != nil, len(mr.Ys))
	}
	want := make([]float64, a.Rows)
	for i := range xs {
		a.MulVec(xs[i], want)
		for j := range want {
			if math.Abs(mr.Ys[i][j]-want[j]) > 1e-9 {
				t.Fatalf("ys[%d][%d] = %v, want %v", i, j, mr.Ys[i][j], want[j])
			}
		}
	}

	// Transpose: y ← Aᵀx against a hand-rolled reference.
	x := randVec(r, a.Rows)
	resp, body = postJSON(t, ts.URL+"/v1/multiply", multiplyRequest{
		engineRequest: engineRequest{Matrix: "lap"}, X: x, Transpose: true,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("transpose: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			ref[a.ColIdx[p]] += a.Val[p] * x[i]
		}
	}
	for j := range ref {
		if math.Abs(mr.Y[j]-ref[j]) > 1e-9 {
			t.Fatalf("transpose y[%d] = %v, want %v", j, mr.Y[j], ref[j])
		}
	}
}

// TestHTTPBinarySolve drives /v1/solve over the wire format and checks
// the solution is bit-identical to the JSON path.
func TestHTTPBinarySolve(t *testing.T) {
	ts, p := newTestServer(t)
	a, err := p.Matrix("lap")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	b := randVec(r, a.Rows)

	jreq, _ := json.Marshal(solveRequest{
		engineRequest: engineRequest{Matrix: "lap", Method: "s2d", K: 4},
		B:             b, Tol: 1e-10, MaxIter: 2000,
	})
	resp, jbody := postRaw(t, ts.URL+"/v1/solve", "application/json", "", jreq)
	if resp.StatusCode != 200 {
		t.Fatalf("json solve: %d %s", resp.StatusCode, jbody)
	}
	var jresp solveResponse
	if err := json.Unmarshal(jbody, &jresp); err != nil {
		t.Fatal(err)
	}

	breq := mustFrame(t, &wire.Frame{
		Op: wire.OpSolveReq, Matrix: "lap", Method: "s2d", K: 4,
		Vectors: [][]float64{b}, Tol: 1e-10, MaxIter: 2000,
	})
	resp, bbody := postRaw(t, ts.URL+"/v1/solve", wire.ContentType, "", breq)
	if resp.StatusCode != 200 {
		t.Fatalf("binary solve: %d %s", resp.StatusCode, bbody)
	}
	f, err := wire.Decode(bbody)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != wire.OpSolveResp || !f.Converged || f.MaxIter != jresp.Iterations {
		t.Fatalf("solve frame meta: %+v vs json %+v", f, jresp)
	}
	if math.Float64bits(f.Tol) != math.Float64bits(jresp.Residual) {
		t.Fatalf("residual bits differ: %x vs %x", math.Float64bits(f.Tol), math.Float64bits(jresp.Residual))
	}
	for i := range jresp.X {
		if math.Float64bits(f.Vectors[0][i]) != math.Float64bits(jresp.X[i]) {
			t.Fatalf("x[%d] differs between encodings", i)
		}
	}
}

// TestHTTPMatricesResource covers the happy paths of the matrices
// resource: list, detail with engine rows, refcount-safe delete.
func TestHTTPMatricesResource(t *testing.T) {
	ts, p := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/matrices")
	if err != nil {
		t.Fatal(err)
	}
	var list matrixListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Matrices) != 1 || list.Matrices[0].Name != "lap" {
		t.Fatalf("list = %+v", list)
	}

	// Warm an engine so the detail view shows kernel choices.
	if resp, body := postJSON(t, ts.URL+"/v1/multiply", multiplyRequest{
		engineRequest: engineRequest{Matrix: "lap"}, X: make([]float64, 196),
	}); resp.StatusCode != 200 {
		t.Fatalf("warm multiply: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Get(ts.URL + "/v1/matrices/lap")
	if err != nil {
		t.Fatal(err)
	}
	var d matrixDetail
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d.Name != "lap" || d.Rows != 196 || len(d.Engines) != 1 {
		t.Fatalf("detail = %+v", d)
	}
	if d.Engines[0].Schedule == "" || d.Engines[0].Kernel == "" {
		t.Fatalf("engine row missing schedule/kernel: %+v", d.Engines[0])
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/matrices/lap", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d, want 204", resp.StatusCode)
	}
	if _, err := p.Matrix("lap"); err == nil {
		t.Fatal("matrix still registered after delete")
	}
	// Idempotence: the second delete is a clean 404.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete: %d, want 404", resp.StatusCode)
	}
}

// TestHTTPTenantEndToEnd drives an authenticated multiply through both
// encodings and checks the per-tenant counters surface in /metrics.
func TestHTTPTenantEndToEnd(t *testing.T) {
	reg, err := NewTenantRegistry(TenantSpec{Name: "alice", Key: "ka", Weight: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(Options{Seed: 1, Tenants: reg})
	t.Cleanup(p.Close)
	if err := p.AddMatrix("lap", testMatrix(t, 14, 14)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(p))
	t.Cleanup(ts.Close)

	x := randVec(rand.New(rand.NewSource(23)), 196)
	jreq, _ := json.Marshal(multiplyRequest{engineRequest: engineRequest{Matrix: "lap"}, X: x})
	resp, body := postRaw(t, ts.URL+"/v1/multiply", "application/json", "Bearer ka", jreq)
	if resp.StatusCode != 200 {
		t.Fatalf("authed multiply: %d %s", resp.StatusCode, body)
	}
	breq := mustFrame(t, &wire.Frame{Op: wire.OpMultiplyReq, Matrix: "lap", Vectors: [][]float64{x}})
	resp, body = postRaw(t, ts.URL+"/v1/multiply", wire.ContentType, "Bearer ka", breq)
	if resp.StatusCode != 200 {
		t.Fatalf("authed binary multiply: %d %s", resp.StatusCode, body)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var pm PoolMetrics
	if err := json.NewDecoder(mresp.Body).Decode(&pm); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	var alice *TenantMetrics
	for i := range pm.Tenants {
		if pm.Tenants[i].Name == "alice" {
			alice = &pm.Tenants[i]
		}
	}
	if alice == nil {
		t.Fatalf("tenant alice missing from /metrics: %+v", pm.Tenants)
	}
	if alice.Requests != 2 || alice.Weight != 2 {
		t.Fatalf("alice = %+v, want 2 requests at weight 2", alice)
	}
	if alice.BytesInJSON == 0 || alice.BytesOutJSON == 0 || alice.BytesInBinary == 0 || alice.BytesOutBinary == 0 {
		t.Fatalf("byte counters not accrued: %+v", alice)
	}
	// The binary encoding moves fewer bytes for the same request.
	if alice.BytesInBinary >= alice.BytesInJSON {
		t.Fatalf("binary request (%d B) not smaller than JSON (%d B)", alice.BytesInBinary, alice.BytesInJSON)
	}
}
