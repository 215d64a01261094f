package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/method"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/wire"
)

// Server is the HTTP front end over a Pool. It implements http.Handler;
// cmd/spmvserve mounts it directly. See API.md for the full reference.
//
//	POST   /v1/multiply         y ← Ax (or Aᵀx), single or multi-RHS
//	POST   /v1/solve            iterative solve (cg / lsqr / cgnr)
//	GET    /v1/methods          partitioning-method registry
//	GET    /v1/matrices         registered matrices
//	POST   /v1/matrices?name=N  MatrixMarket upload
//	GET    /v1/matrices/{name}  matrix info + its resident engines
//	DELETE /v1/matrices/{name}  unregister (409 while pinned)
//	GET    /metrics             PoolMetrics (per-engine, per-tenant)
//	GET    /healthz             liveness (always 200)
//	GET    /readyz              readiness (503 while draining)
//
// Encodings: /v1/multiply and /v1/solve speak JSON by default and the
// binary frame format (package wire) when the request body carries
// Content-Type: application/x-spmv-frame; the response mirrors the
// request's encoding and results are bit-identical either way. Error
// responses are always the JSON envelope {"error","code","retryable",
// "retry_after_ms"} with stable machine-readable codes, whatever the
// request encoding.
//
// Tenancy: with a keyed TenantRegistry (spmvserve -tenants), multiply,
// solve, and matrix mutations require `Authorization: Bearer <key>`;
// each tenant is admitted against its own queue quota (overload is a
// per-tenant 429) and scheduled by weight. Without a registry every
// request runs as the anonymous default tenant.
//
// Retryable rejections carry both a standard integer-seconds
// Retry-After header (rounded up, minimum 1) and a precise
// X-Retry-After-Ms header; clients that understand the extension should
// prefer the latter (the envelope's retry_after_ms matches it).
type Server struct {
	pool *Pool
	mux  *http.ServeMux

	// DefaultMethod and DefaultK fill requests that omit them.
	DefaultMethod string
	DefaultK      int
	// DefaultDeadline bounds every multiply/solve that does not carry its
	// own deadline_ms; zero means no server-side deadline. Deadlines are
	// enforced before a request enqueues and inside the solver stop
	// hooks, so an expired request never widens a batch.
	DefaultDeadline time.Duration
	// MaxUploadBytes caps the /v1/matrices request body; larger uploads
	// fail with 413 (default 1 GiB).
	MaxUploadBytes int64
	// Traces is the bounded in-flight trace buffer behind /debug/traces:
	// every authenticated request records its span tree here.
	Traces *obs.TraceBuffer

	draining atomic.Bool
}

// NewServer wraps pool in the HTTP API.
func NewServer(pool *Pool) *Server {
	s := &Server{
		pool: pool, mux: http.NewServeMux(),
		DefaultMethod: "s2d", DefaultK: 4,
		MaxUploadBytes: 1 << 30,
		Traces:         obs.NewTraceBuffer(256, 32),
	}
	s.mux.HandleFunc("POST /v1/multiply", s.auth(s.handleMultiply))
	s.mux.HandleFunc("POST /v1/solve", s.auth(s.handleSolve))
	s.mux.HandleFunc("GET /v1/methods", s.handleMethods)
	s.mux.HandleFunc("GET /v1/matrices", s.handleMatrixList)
	s.mux.HandleFunc("POST /v1/matrices", s.auth(s.handleUpload))
	s.mux.HandleFunc("GET /v1/matrices/{name}", s.handleMatrixGet)
	s.mux.HandleFunc("DELETE /v1/matrices/{name}", s.auth(s.handleMatrixDelete))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// auth resolves the request's tenant before the handler runs, opens the
// request trace (X-Trace-Id is on every response from here, including
// auth failures), and publishes the finished trace. Data-plane and
// mutating endpoints go through here; read-only introspection (methods,
// matrix listings, metrics, health) stays open so dashboards and probes
// need no keys.
func (s *Server) auth(h func(http.ResponseWriter, *http.Request, *Tenant, *reqTrace)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw, rt := s.beginTrace(w, r)
		defer rt.finish(s, sw)
		tn, err := s.pool.Tenants().Authenticate(r.Header.Get("Authorization"))
		if err != nil {
			writeError(sw, err)
			return
		}
		rt.tenant = tn.Name
		h(sw, r, tn, rt)
	}
}

// SetDraining flips the readiness signal. A draining server keeps
// answering every endpoint — in-flight and just-arrived requests finish
// normally while the load balancer reads /readyz and routes new traffic
// elsewhere; the listener itself stops accepting only when
// http.Server.Shutdown closes it.
func (s *Server) SetDraining(v bool) {
	if s.draining.Swap(v) == v {
		return
	}
	log := s.pool.Logger()
	if v {
		log.LogAttrs(context.Background(), slog.LevelWarn, "server draining",
			slog.String("event", "drain"))
	} else {
		log.LogAttrs(context.Background(), slog.LevelInfo, "server accepting traffic",
			slog.String("event", "undrain"))
	}
}

// Draining reports the readiness state.
func (s *Server) Draining() bool { return s.draining.Load() }

// handleHealthz is liveness: the process is up and the mux is serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 while accepting new work, 503 (in the
// standard envelope) once draining.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeEnvelope(w, http.StatusServiceUnavailable, ErrorEnvelope{
			Error: "serve: draining", Code: CodeDraining, Retryable: true,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// requestCtx derives the request context with the effective deadline:
// the request's own deadline_ms when given, else the server default,
// else no deadline. A deadline_ms whose nanoseconds overflow a
// time.Duration (above ≈ 9.22e12: 292 years) is clamped to the longest
// one, not left to wrap into a deadline already past.
func (s *Server) requestCtx(r *http.Request, deadlineMs int) (context.Context, context.CancelFunc) {
	const maxDeadlineMs = math.MaxInt64 / int64(time.Millisecond)
	switch {
	case deadlineMs > 0:
		ms := min(int64(deadlineMs), maxDeadlineMs)
		return context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
	case s.DefaultDeadline > 0:
		return context.WithTimeout(r.Context(), s.DefaultDeadline)
	default:
		return r.Context(), func() {}
	}
}

// encodingOf maps the request's Content-Type onto the response encoding.
func encodingOf(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	if strings.TrimSpace(ct) == wire.ContentType {
		return EncodingBinary
	}
	return EncodingJSON
}

// readBody drains the request body through MaxBytesReader; the caller
// routes errors through writeError (a tripped limit maps to 413). A
// declared Content-Length sizes the buffer up front — one read into one
// allocation, where io.ReadAll grows through a dozen doublings and
// copies — and a declared length over the limit is refused before a
// byte is read.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	// Chunked bodies have no length until EOF, and a header is only a
	// claim: past maxPresize the buffer grows as the bytes really arrive.
	if r.ContentLength < 0 || r.ContentLength > maxPresize {
		return io.ReadAll(body)
	}
	buf := make([]byte, r.ContentLength)
	if _, err := io.ReadFull(body, buf); err != nil {
		return nil, fmt.Errorf("serve: reading request body: %w", err)
	}
	return buf, nil
}

// maxPresize is the largest declared Content-Length readBody allocates
// on the header's word alone (a 160k-row nrhs=8 frame is 10 MB).
const maxPresize = 64 << 20

// writeFrame streams f as the 200 response — header and names, then each
// vector's bytes straight from where they lie — with Content-Length set
// so net/http does not chunk. It returns the bytes written.
func writeFrame(w http.ResponseWriter, f *wire.Frame) int {
	w.Header().Set("Content-Type", wire.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(f.Size()))
	n, err := wire.WriteTo(w, f)
	var bad *wire.FormatError
	if errors.As(err, &bad) {
		// Refused before a byte left: the envelope can still go out.
		w.Header().Del("Content-Length")
		writeError(w, err)
	}
	return int(n)
}

// engineRequest is the addressing triple shared by multiply and solve.
type engineRequest struct {
	Matrix string `json:"matrix"`
	Method string `json:"method"`
	K      int    `json:"k"`
}

func (s *Server) acquire(req engineRequest) (*Handle, error) {
	if req.Method == "" {
		req.Method = s.DefaultMethod
	}
	if req.K == 0 {
		req.K = s.DefaultK
	}
	return s.pool.Acquire(req.Matrix, req.Method, req.K)
}

type multiplyRequest struct {
	engineRequest
	// X is the single right-hand side; Xs submits several at once
	// (admitted atomically, coalesced through the same batches). Exactly
	// one of the two may be set.
	X  []float64   `json:"x,omitempty"`
	Xs [][]float64 `json:"xs,omitempty"`
	// Transpose computes y ← Aᵀx (x of length rows, y of length cols).
	Transpose bool `json:"transpose,omitempty"`
	// DeadlineMs overrides the server's default deadline for this request.
	DeadlineMs int `json:"deadline_ms,omitempty"`
	// Timings opts into the per-response stage breakdown (JSON responses
	// only); `?timings=1` on the URL does the same.
	Timings bool `json:"timings,omitempty"`
}

// multiplyResponse is the JSON reply. The handler never marshals it
// whole: the vectors are written by wire.JSONBody and multiplyMeta's
// members follow them, which is byte for byte json.Marshal of this.
type multiplyResponse struct {
	Y  []float64   `json:"y,omitempty"`
	Ys [][]float64 `json:"ys,omitempty"`
	multiplyMeta
}

type multiplyMeta struct {
	Method    string        `json:"method"`
	K         int           `json:"k"`
	Schedule  string        `json:"schedule"`
	ElapsedMs float64       `json:"elapsed_ms"`
	Timings   *TimingsBlock `json:"timings,omitempty"`
}

// decodeJSON is json.Unmarshal(body, req) — the same verdict, message
// and bits — at the cost of the request's floats: wire.SplitJSON parses
// x and xs in place and encoding/json sees only what is left of the
// object. When the walk declines the body, or encoding/json refuses the
// remainder, the whole body goes to encoding/json instead.
func (req *multiplyRequest) decodeJSON(body []byte) error {
	rest, x, xs, ok := wire.SplitJSON(body, "x", "xs")
	if ok && json.Unmarshal(rest, req) == nil {
		req.X, req.Xs = x, xs
		return nil
	}
	*req = multiplyRequest{} // a refused remainder may have filled fields
	return json.Unmarshal(body, req)
}

// writeReply sends a 200 JSON reply: the vectors already encoded into
// reply, then meta's members. With the timings block wanted, the encode
// stage is the vectors alone — closed here so the block can carry it —
// and otherwise runs to the last byte written. It returns the bytes
// sent.
func (rt *reqTrace) writeReply(w http.ResponseWriter, reply *wire.JSONBody, meta any, block **TimingsBlock, timings bool) int {
	if timings {
		rt.mark(StageEncode)
		*block = rt.block()
	}
	rest, err := json.Marshal(meta)
	if err != nil {
		writeError(w, err)
		return 0
	}
	reply.Finish(rest)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(reply.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = reply.WriteTo(w) // a client that hung up
	if !timings {
		rt.mark(StageEncode)
	}
	return reply.Len()
}

// wantTimings reports whether the response should carry the stage
// breakdown: the URL knob or the JSON body flag.
func wantTimings(r *http.Request, bodyFlag bool) bool {
	return bodyFlag || r.URL.Query().Get("timings") == "1"
}

func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request, tn *Tenant, rt *reqTrace) {
	enc := encodingOf(r)
	body, err := readBody(w, r, s.MaxUploadBytes)
	if err != nil {
		writeError(w, err)
		return
	}
	var req multiplyRequest
	single := false
	if enc == EncodingBinary {
		f, err := wire.Decode(body)
		if err != nil {
			writeErrCode(w, http.StatusBadRequest, CodeBadRequest, "wire: "+err.Error())
			return
		}
		if f.Op != wire.OpMultiplyReq {
			writeErrCode(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("wire: op %d is not a multiply request", f.Op))
			return
		}
		req = multiplyRequest{
			engineRequest: engineRequest{Matrix: f.Matrix, Method: f.Method, K: f.K},
			Xs:            f.Vectors, Transpose: f.Transpose, DeadlineMs: f.DeadlineMs,
		}
	} else {
		if err := req.decodeJSON(body); err != nil {
			writeErrCode(w, http.StatusBadRequest, CodeBadRequest, "bad request body: "+err.Error())
			return
		}
	}
	xs := req.Xs
	switch {
	case req.X != nil && req.Xs != nil:
		writeErrCode(w, http.StatusBadRequest, CodeBadRequest, `"x" and "xs" are mutually exclusive`)
		return
	case req.X != nil:
		xs, single = [][]float64{req.X}, true
	}
	if len(xs) > wire.MaxVectors {
		writeErrCode(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("%d right-hand sides exceeds the limit of %d", len(xs), wire.MaxVectors))
		return
	}
	rt.mark(StageDecode)
	ctx, cancel := s.requestCtx(r, req.DeadlineMs)
	defer cancel()
	h, err := s.acquire(req.engineRequest)
	if err != nil {
		writeError(w, err)
		return
	}
	defer h.Release()
	rt.setEngine(h)
	rt.mark(StageAdmission)
	t0 := time.Now()
	ys, err := h.MultiplyBatch(withStageSink(ctx, rt.sink), tn, xs, req.Transpose)
	rt.mark(StageSchedule)
	if err != nil {
		writeError(w, err)
		return
	}
	defer h.recycle(ys) // once the response no longer reads them
	var sent int
	if enc == EncodingBinary {
		key := h.Key()
		sent = writeFrame(w, &wire.Frame{
			Op: wire.OpMultiplyResp, Matrix: key.Matrix, Method: key.Method, K: key.K,
			Transpose: req.Transpose, Vectors: ys,
		})
		rt.mark(StageEncode)
	} else {
		meta := multiplyMeta{
			Method: h.Key().Method, K: h.Key().K, Schedule: h.Schedule(), ElapsedMs: msSince(t0),
		}
		reply := wire.NewJSONBody()
		defer reply.Release()
		switch { // y and ys are omitempty
		case single && len(ys[0]) > 0:
			err = reply.Vector("y", ys[0])
		case !single && len(ys) > 0:
			err = reply.Vectors("ys", ys)
		}
		if err != nil {
			writeError(w, err)
			return
		}
		sent = rt.writeReply(w, reply, &meta, &meta.Timings, wantTimings(r, req.Timings))
	}
	tn.CountBytes(enc, len(body), sent)
}

type solveRequest struct {
	engineRequest
	B []float64 `json:"b"`
	// Solver selects the iterative method: "cg" (square SPD systems),
	// "lsqr" or "cgnr" (rectangular least squares). Empty picks CG for
	// square matrices and LSQR for rectangular ones.
	Solver  string  `json:"solver"`
	Tol     float64 `json:"tol"`      // default 1e-8
	MaxIter int     `json:"max_iter"` // default 500
	// DeadlineMs overrides the server's default deadline for this request.
	DeadlineMs int `json:"deadline_ms"`
	// Timings opts into the per-response stage breakdown (JSON responses
	// only); `?timings=1` on the URL does the same.
	Timings bool `json:"timings,omitempty"`
}

// solveResponse is the JSON reply, written as multiplyResponse is.
type solveResponse struct {
	X []float64 `json:"x"`
	solveMeta
}

type solveMeta struct {
	Iterations int           `json:"iterations"`
	Residual   float64       `json:"residual"`
	Converged  bool          `json:"converged"`
	Solver     string        `json:"solver"`
	Method     string        `json:"method"`
	K          int           `json:"k"`
	ElapsedMs  float64       `json:"elapsed_ms"`
	Timings    *TimingsBlock `json:"timings,omitempty"`
}

// decodeJSON is multiplyRequest's, for b.
func (req *solveRequest) decodeJSON(body []byte) error {
	rest, b, _, ok := wire.SplitJSON(body, "b", "")
	if ok && json.Unmarshal(rest, req) == nil {
		req.B = b
		return nil
	}
	*req = solveRequest{}
	return json.Unmarshal(body, req)
}

// handleSolve runs an iterative solver on the pooled engine: CG for
// square systems, LSQR (or CGNR) over the Ax/Aᵀx pair for rectangular
// ones. Every iteration's multiply goes through the coalescing
// scheduler charged to the calling tenant, so concurrent solves on the
// same engine batch each other's iterations — forward and transpose
// products in their own batches.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request, tn *Tenant, rt *reqTrace) {
	enc := encodingOf(r)
	body, err := readBody(w, r, s.MaxUploadBytes)
	if err != nil {
		writeError(w, err)
		return
	}
	var req solveRequest
	if enc == EncodingBinary {
		f, err := wire.Decode(body)
		if err != nil {
			writeErrCode(w, http.StatusBadRequest, CodeBadRequest, "wire: "+err.Error())
			return
		}
		if f.Op != wire.OpSolveReq {
			writeErrCode(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("wire: op %d is not a solve request", f.Op))
			return
		}
		if len(f.Vectors) != 1 {
			writeErrCode(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("wire: solve wants exactly 1 right-hand side, got %d", len(f.Vectors)))
			return
		}
		req = solveRequest{
			engineRequest: engineRequest{Matrix: f.Matrix, Method: f.Method, K: f.K},
			B:             f.Vectors[0], Solver: wire.SolverName(f.Solver),
			Tol: f.Tol, MaxIter: f.MaxIter, DeadlineMs: f.DeadlineMs,
		}
	} else {
		if err := req.decodeJSON(body); err != nil {
			writeErrCode(w, http.StatusBadRequest, CodeBadRequest, "bad request body: "+err.Error())
			return
		}
	}
	if req.Tol <= 0 {
		req.Tol = 1e-8
	}
	if req.MaxIter <= 0 {
		req.MaxIter = 500
	}
	rt.mark(StageDecode)
	ctx, cancel := s.requestCtx(r, req.DeadlineMs)
	defer cancel()
	h, err := s.acquire(req.engineRequest)
	if err != nil {
		writeError(w, err)
		return
	}
	defer h.Release()
	rt.setEngine(h)
	rt.mark(StageAdmission)
	rows, cols := h.Rows(), h.Cols()
	if len(req.B) != rows {
		writeError(w, &DimensionError{Got: len(req.B), Want: rows, What: "b"})
		return
	}
	solverName := strings.ToLower(req.Solver)
	if solverName == "" {
		if rows == cols {
			solverName = "cg"
		} else {
			solverName = "lsqr"
		}
	}
	switch solverName {
	case "cg":
		if rows != cols {
			// CG iterates y ← Ax on x of length Rows; on a rectangular
			// matrix the first multiply would fail mid-solve. Reject the
			// shape upfront and point at the least-squares solvers.
			writeErrCode(w, http.StatusUnprocessableEntity, CodeUnprocessable, fmt.Sprintf(
				"serve: solve: CG requires a square system, matrix is %dx%d — use solver \"lsqr\" or \"cgnr\"",
				rows, cols))
			return
		}
	case "lsqr", "cgnr":
	default:
		writeErrCode(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf(
			"serve: unknown solver %q (supported: cg, lsqr, cgnr)", req.Solver))
		return
	}

	t0 := time.Now()
	ctx = withStageSink(ctx, rt.sink)
	var mulErr error
	// The engine writes each product straight into the solver's own y.
	lift := func(transpose bool) solver.MulVec {
		return func(x, y []float64) {
			if mulErr == nil {
				mulErr = h.multiplyInto(ctx, tn, x, y, transpose)
			}
		}
	}
	mul := lift(false)
	mulT := lift(true)
	// The stop hook runs between solver iterations: a deadline or fault
	// ends the solve at the next iteration boundary instead of burning
	// the remaining MaxIter multiplies.
	stop := func() error {
		if mulErr != nil {
			return mulErr
		}
		return ctx.Err()
	}
	x := make([]float64, cols)
	var res solver.Result
	switch solverName {
	case "cg":
		res, err = solver.CGStop(mul, req.B, x, req.Tol, req.MaxIter, stop)
	case "lsqr":
		res, err = solver.LSQRStop(mul, mulT, req.B, x, req.Tol, req.MaxIter, stop)
	case "cgnr":
		res, err = solver.CGNRStop(mul, mulT, req.B, x, req.Tol, req.MaxIter, stop)
	}
	rt.mark(StageSolve)
	if mulErr != nil {
		writeError(w, mulErr)
		return
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The stop hook fired on the request context, not on a solver
			// verdict — report it as a cancellation, not a 422.
			writeError(w, err)
			return
		}
		// A solver rejection (indefinite matrix, dimension mismatch) is a
		// property of the requested system, not a server fault.
		writeErrCode(w, http.StatusUnprocessableEntity, CodeUnprocessable,
			fmt.Sprintf("serve: solve: %v", err))
		return
	}
	var sent int
	if enc == EncodingBinary {
		key := h.Key()
		code, _ := wire.SolverCode(solverName) // validated above
		sent = writeFrame(w, &wire.Frame{
			Op: wire.OpSolveResp, Matrix: key.Matrix, Method: key.Method, K: key.K,
			Vectors: [][]float64{x}, Solver: code,
			Tol: res.Residual, MaxIter: res.Iterations, Converged: res.Converged,
		})
		rt.mark(StageEncode)
	} else {
		meta := solveMeta{
			Iterations: res.Iterations, Residual: res.Residual, Converged: res.Converged,
			Solver: solverName, Method: h.Key().Method, K: h.Key().K, ElapsedMs: msSince(t0),
		}
		reply := wire.NewJSONBody()
		defer reply.Release()
		if err := reply.Vector("x", x); err != nil {
			writeError(w, err)
			return
		}
		sent = rt.writeReply(w, reply, &meta, &meta.Timings, wantTimings(r, req.Timings))
	}
	tn.CountBytes(enc, len(body), sent)
}

type methodsResponse struct {
	Methods  []method.Info `json:"methods"`
	Matrices []MatrixInfo  `json:"matrices"`
}

func (s *Server) handleMethods(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, methodsResponse{
		Methods:  method.List(),
		Matrices: s.pool.Matrices(),
	})
}

type matrixListResponse struct {
	Matrices []MatrixInfo `json:"matrices"`
}

func (s *Server) handleMatrixList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, matrixListResponse{Matrices: s.pool.Matrices()})
}

// matrixEngineInfo is one resident engine serving the matrix.
type matrixEngineInfo struct {
	Method   string `json:"method"`
	K        int    `json:"k"`
	Schedule string `json:"schedule"`
	Kernel   string `json:"kernel,omitempty"`
	Refs     int    `json:"refs"`
}

type matrixDetail struct {
	MatrixInfo
	Engines []matrixEngineInfo `json:"engines,omitempty"`
}

func (s *Server) handleMatrixGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	a, err := s.pool.Matrix(name)
	if err != nil {
		writeError(w, err)
		return
	}
	d := matrixDetail{MatrixInfo: MatrixInfo{Name: name, Rows: a.Rows, Cols: a.Cols, NNZ: a.NNZ()}}
	for _, e := range s.pool.MetricsSnapshot().Engines {
		if e.Matrix == name {
			d.Engines = append(d.Engines, matrixEngineInfo{
				Method: e.Method, K: e.K, Schedule: e.Schedule, Kernel: e.Kernel, Refs: e.Refs,
			})
		}
	}
	writeJSON(w, http.StatusOK, d)
}

func (s *Server) handleMatrixDelete(w http.ResponseWriter, r *http.Request, _ *Tenant, _ *reqTrace) {
	if err := s.pool.RemoveMatrix(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// validateMatrixName guards upload names: path separators and parent
// references would corrupt anything that later maps names to files, and
// unbounded names bloat keys and metrics.
func validateMatrixName(name string) error {
	if name == "" {
		return fmt.Errorf("matrix name is empty")
	}
	if len(name) > wire.MaxNameLen {
		return fmt.Errorf("matrix name exceeds %d bytes", wire.MaxNameLen)
	}
	if strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return fmt.Errorf("matrix name %q contains path separators", name)
	}
	return nil
}

// handleUpload registers a MatrixMarket matrix posted in the request
// body under ?name= (falling back to a generated name). Bodies are read
// through MaxBytesReader, never buffered unbounded: an upload past
// MaxUploadBytes fails with 413 the moment the limit trips.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request, _ *Tenant, _ *reqTrace) {
	name := strings.TrimSpace(r.URL.Query().Get("name"))
	if r.URL.Query().Has("name") {
		if err := validateMatrixName(name); err != nil {
			writeErrCode(w, http.StatusBadRequest, CodeBadRequest, "serve: "+err.Error())
			return
		}
	} else {
		name = fmt.Sprintf("upload-%d", time.Now().UnixNano())
	}
	lr := http.MaxBytesReader(w, r.Body, s.MaxUploadBytes)
	a, err := sparse.ReadMatrixMarket(lr)
	if err != nil {
		// A body truncated at the limit surfaces as a parse error on the
		// cut-off line; probe the reader so an oversized upload reports 413
		// whatever shape the truncation artifact took.
		var tooBig *http.MaxBytesError
		if !errors.As(err, &tooBig) {
			if _, perr := lr.Read(make([]byte, 1)); perr != nil {
				errors.As(perr, &tooBig)
			}
		}
		if tooBig != nil {
			writeError(w, tooBig)
			return
		}
		writeErrCode(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if err := s.pool.AddMatrix(name, a); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, MatrixInfo{Name: name, Rows: a.Rows, Cols: a.Cols, NNZ: a.NNZ()})
}

// handleMetrics negotiates the exposition format: an Accept header
// naming text/plain (or OpenMetrics) gets the Prometheus text
// exposition; everything else — including no Accept at all — keeps the
// legacy PoolMetrics JSON, so existing scrapers are untouched.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if obs.WantsPrometheus(r.Header.Get("Accept")) {
		s.writePromMetrics(w)
		return
	}
	writeJSON(w, http.StatusOK, s.pool.MetricsSnapshot())
}

// tracesResponse is the /debug/traces payload.
type tracesResponse struct {
	Seen    uint64       `json:"seen"`
	Recent  []*obs.Trace `json:"recent"`
	Slowest []*obs.Trace `json:"slowest"`
}

// handleTraces dumps the bounded trace buffer: the most recent requests
// (newest first) and the slowest since start (slowest first).
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	recent, slowest, seen := s.Traces.Snapshot()
	writeJSON(w, http.StatusOK, tracesResponse{Seen: seen, Recent: recent, Slowest: slowest})
}

// Stable machine-readable error codes: clients branch on these, never
// on message text. Every error response carries exactly one.
const (
	CodeBadRequest      = "bad_request"       // 400: malformed body/frame/params
	CodeBadDimension    = "bad_dimension"     // 400: vector does not match matrix
	CodeUnauthorized    = "unauthorized"      // 401: missing/unknown API key
	CodeUnknownMatrix   = "unknown_matrix"    // 404
	CodeUnknownMethod   = "unknown_method"    // 404
	CodeConflict        = "conflict"          // 409: duplicate name, pinned delete
	CodePayloadTooLarge = "payload_too_large" // 413
	CodeUnprocessable   = "unprocessable"     // 422: valid request, unsolvable system
	CodeOverloaded      = "overloaded"        // 429: tenant queue quota (retryable)
	CodeQuarantined     = "quarantined"       // 503: engine in rebuild cooldown (retryable)
	CodeEngineFault     = "engine_fault"      // 503: batch died with the engine (retryable)
	CodeDraining        = "draining"          // 503: pool/server shutting down
	CodeDeadline        = "deadline"          // 504: deadline_ms expired (retryable)
	CodeCancelled       = "cancelled"         // 499: client closed request
	CodeInternal        = "internal"          // 500
)

// ErrorEnvelope is the one error shape every endpoint returns.
// retry_after_ms is set exactly when the Retry-After headers are.
type ErrorEnvelope struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	Retryable    bool   `json:"retryable"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// errorBody aliases the envelope under the legacy name used by tests.
type errorBody = ErrorEnvelope

// setRetryAfter writes the retry contract headers: the RFC's
// integer-seconds Retry-After (rounded up, minimum 1 — the header cannot
// express sub-second waits) plus the precise X-Retry-After-Ms.
func setRetryAfter(w http.ResponseWriter, d time.Duration) int64 {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	ms := d.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("X-Retry-After-Ms", strconv.FormatInt(ms, 10))
	return ms
}

// writeErrCode emits the envelope for handler-level rejections that
// have no typed error behind them (malformed bodies, bad parameters).
//
//spmv:errwriter
func writeErrCode(w http.ResponseWriter, status int, code, msg string) {
	writeEnvelope(w, status, ErrorEnvelope{Error: msg, Code: code})
}

// writeError maps the serving layer's typed errors onto HTTP statuses
// and envelope codes.
//
//spmv:errwriter
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	env := ErrorEnvelope{Error: err.Error(), Code: CodeInternal}
	var (
		unknownMat  *UnknownMatrixError
		unknownMet  *UnknownMethodError
		unauth      *UnauthorizedError
		pinned      *PinnedMatrixError
		dup         *DuplicateMatrixError
		dim         *DimensionError
		quarantined *QuarantinedError
		tooBig      *http.MaxBytesError
	)
	switch {
	case errors.Is(err, ErrOverloaded):
		// Overload is transient at batch-flush timescales; hint a short
		// precise backoff.
		env.RetryAfterMs = setRetryAfter(w, 25*time.Millisecond)
		status, env.Code, env.Retryable = http.StatusTooManyRequests, CodeOverloaded, true
	case errors.As(err, &quarantined):
		// The breaker knows exactly when the rebuild cooldown ends.
		env.RetryAfterMs = setRetryAfter(w, quarantined.RetryAfter)
		status, env.Code, env.Retryable = http.StatusServiceUnavailable, CodeQuarantined, true
	case errors.Is(err, ErrEngineFault):
		// The batch died with the engine; the quarantine + rebuild path
		// typically has a fresh engine within one breaker cooldown.
		env.RetryAfterMs = setRetryAfter(w, 100*time.Millisecond)
		status, env.Code, env.Retryable = http.StatusServiceUnavailable, CodeEngineFault, true
	case errors.Is(err, ErrClosed):
		status, env.Code, env.Retryable = http.StatusServiceUnavailable, CodeDraining, true
	case errors.As(err, &unauth):
		status, env.Code = http.StatusUnauthorized, CodeUnauthorized
	case errors.As(err, &unknownMat):
		status, env.Code = http.StatusNotFound, CodeUnknownMatrix
	case errors.As(err, &unknownMet):
		status, env.Code = http.StatusNotFound, CodeUnknownMethod
	case errors.As(err, &pinned), errors.As(err, &dup):
		status, env.Code = http.StatusConflict, CodeConflict
	case errors.As(err, &dim):
		status, env.Code = http.StatusBadRequest, CodeBadDimension
	case errors.As(err, &tooBig):
		status, env.Code = http.StatusRequestEntityTooLarge, CodePayloadTooLarge
		env.Error = fmt.Sprintf("serve: request body exceeds the %d-byte limit", tooBig.Limit)
	case errors.Is(err, context.Canceled):
		status, env.Code = 499, CodeCancelled // client closed request (nginx convention)
	case errors.Is(err, context.DeadlineExceeded):
		status, env.Code, env.Retryable = http.StatusGatewayTimeout, CodeDeadline, true
	}
	writeEnvelope(w, status, env)
}

//spmv:errwriter
func writeEnvelope(w http.ResponseWriter, status int, env ErrorEnvelope) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(env)
}

// marshalJSON writes v as the response and returns the bytes written
// (for per-tenant byte accounting).
//
//spmv:errwriter
func marshalJSON(w http.ResponseWriter, status int, v any) []byte {
	buf, err := json.Marshal(v)
	if err != nil {
		writeEnvelope(w, http.StatusInternalServerError,
			ErrorEnvelope{Error: err.Error(), Code: CodeInternal})
		return nil
	}
	buf = append(buf, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf)
	return buf
}

//spmv:errwriter
func writeJSON(w http.ResponseWriter, status int, v any) {
	_ = marshalJSON(w, status, v)
}
