package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/faultinject"
)

// getWith performs a GET with extra headers.
func getWith(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, []byte(sb.String())
}

// TestTraceIDOnEveryResponse: multiply and solve responses — successes,
// handler rejections, and auth failures alike — carry X-Trace-Id;
// inbound correlation headers win over generated IDs.
func TestTraceIDOnEveryResponse(t *testing.T) {
	ts, _ := newTestServer(t)
	x := make([]float64, 196)

	resp, _ := postJSON(t, ts.URL+"/v1/multiply", multiplyRequest{
		engineRequest: engineRequest{Matrix: "lap"}, X: x,
	})
	id := resp.Header.Get("X-Trace-Id")
	if len(id) != 32 {
		t.Fatalf("multiply X-Trace-Id = %q, want generated 32-hex ID", id)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/solve", solveRequest{
		engineRequest: engineRequest{Matrix: "lap"}, B: make([]float64, 196), MaxIter: 3,
	})
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Fatal("solve response missing X-Trace-Id")
	}

	// Error responses still carry the ID.
	resp, _ = postJSON(t, ts.URL+"/v1/multiply", multiplyRequest{
		engineRequest: engineRequest{Matrix: "nope"}, X: x,
	})
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("X-Trace-Id") == "" {
		t.Fatalf("404 response: status %d, X-Trace-Id %q", resp.StatusCode, resp.Header.Get("X-Trace-Id"))
	}

	// Inbound X-Request-Id echoes back; traceparent wins over it.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/multiply",
		strings.NewReader(`{"matrix":"lap","x":`+vecJSON(196)+`}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "client-req.42")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if got := r2.Header.Get("X-Trace-Id"); got != "client-req.42" {
		t.Fatalf("X-Trace-Id = %q, want echoed X-Request-Id", got)
	}

	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/multiply",
		strings.NewReader(`{"matrix":"lap","x":`+vecJSON(196)+`}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	req.Header.Set("X-Request-Id", "loses")
	r3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if got := r3.Header.Get("X-Trace-Id"); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("X-Trace-Id = %q, want traceparent trace-id", got)
	}
}

func vecJSON(n int) string {
	return "[" + strings.TrimSuffix(strings.Repeat("1,", n), ",") + "]"
}

// TestTimingsBlock pins the acceptance criterion: with ?timings=1 the
// JSON response carries the stage breakdown, the top-level stages are
// exactly decode/admission/schedule/encode, and their sum is within 5%
// of the reported total (contiguous intervals make it exact up to float
// rounding).
func TestTimingsBlock(t *testing.T) {
	ts, _ := newTestServer(t)
	x := make([]float64, 196)
	for i := range x {
		x[i] = float64(i % 5)
	}
	resp, body := postJSON(t, ts.URL+"/v1/multiply?timings=1", multiplyRequest{
		engineRequest: engineRequest{Matrix: "lap"}, X: x,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var mr multiplyResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Timings == nil {
		t.Fatal("response missing timings block")
	}
	if mr.Timings.TraceID != resp.Header.Get("X-Trace-Id") {
		t.Fatalf("timings trace_id %q != header %q", mr.Timings.TraceID, resp.Header.Get("X-Trace-Id"))
	}
	wantStages := []string{StageDecode, StageAdmission, StageSchedule, StageEncode}
	if len(mr.Timings.Stages) != len(wantStages) {
		t.Fatalf("stages = %+v, want %v", mr.Timings.Stages, wantStages)
	}
	sum := 0.0
	for i, sp := range mr.Timings.Stages {
		if sp.Stage != wantStages[i] {
			t.Fatalf("stage[%d] = %q, want %q", i, sp.Stage, wantStages[i])
		}
		if sp.Ms < 0 {
			t.Fatalf("stage %s has negative duration %v", sp.Stage, sp.Ms)
		}
		sum += sp.Ms
	}
	if mr.Timings.TotalMs <= 0 {
		t.Fatalf("total_ms = %v, want > 0", mr.Timings.TotalMs)
	}
	if rel := math.Abs(sum-mr.Timings.TotalMs) / mr.Timings.TotalMs; rel > 0.05 {
		t.Fatalf("stage sum %v vs total %v: off by %.1f%%, want within 5%%",
			sum, mr.Timings.TotalMs, rel*100)
	}
	// The schedule stage nests the scheduler's attribution, and the flush
	// span nests the engine's sampled phases.
	var sched *obs.Span
	for i := range mr.Timings.Stages {
		if mr.Timings.Stages[i].Stage == StageSchedule {
			sched = &mr.Timings.Stages[i]
		}
	}
	kids := map[string]bool{}
	var flush *obs.Span
	for i, sp := range sched.Spans {
		kids[sp.Stage] = true
		if sp.Stage == StageFlush {
			flush = &sched.Spans[i]
		}
	}
	for _, want := range []string{StageQueue, StageAssemble, StageFlush} {
		if !kids[want] {
			t.Fatalf("schedule children = %+v, missing %q", sched.Spans, want)
		}
	}
	if flush == nil || flush.Attrs["batch_width"] == nil {
		t.Fatalf("flush span = %+v, want batch_width attr", flush)
	}
	phases := map[string]bool{}
	for _, sp := range flush.Spans {
		phases[sp.Stage] = true
	}
	for _, want := range []string{StageExpand, StageCompute, StageFold} {
		if !phases[want] {
			t.Fatalf("flush phases = %+v, missing %q (engine should implement PhaseSampler)", flush.Spans, want)
		}
	}

	// Without the opt-in, no block — and the same vector bytes before it:
	// the block is appended to a reply encoded once, not a second marshal.
	_, plainBody := postJSON(t, ts.URL+"/v1/multiply", multiplyRequest{
		engineRequest: engineRequest{Matrix: "lap"}, X: x,
	})
	var plain map[string]json.RawMessage
	if err := json.Unmarshal(plainBody, &plain); err != nil {
		t.Fatal(err)
	}
	if _, ok := plain["timings"]; ok {
		t.Fatal("timings block present without opt-in")
	}
	vectorBytes := func(reply []byte) []byte {
		end := bytes.Index(reply, []byte(`,"method"`))
		if end < 0 || !bytes.HasPrefix(reply, []byte(`{"y":[`)) {
			t.Fatalf("reply %.60q… does not open with y and continue with method", reply)
		}
		return reply[:end]
	}
	if !bytes.Equal(vectorBytes(body), vectorBytes(plainBody)) {
		t.Fatal("y differs between the reply with timings and the reply without")
	}

	// The JSON body flag works too, on solve as well.
	resp, body = postJSON(t, ts.URL+"/v1/solve", solveRequest{
		engineRequest: engineRequest{Matrix: "lap"}, B: x, MaxIter: 5, Timings: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, body)
	}
	var sr solveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Timings == nil {
		t.Fatal("solve response missing timings block")
	}
	var solve *obs.Span
	for i := range sr.Timings.Stages {
		if sr.Timings.Stages[i].Stage == StageSolve {
			solve = &sr.Timings.Stages[i]
		}
	}
	if solve == nil || len(solve.Spans) == 0 {
		t.Fatalf("solve stage = %+v, want scheduler children", sr.Timings.Stages)
	}
	for _, sp := range solve.Spans {
		if sp.Stage == StageFlush {
			if fl, _ := sp.Attrs["flushes"].(float64); fl < 2 {
				t.Fatalf("solve flush span %+v: a 5-iteration CG should flush more than once", sp.Attrs)
			}
		}
	}
}

// TestDebugTraces: the trace buffer surfaces finished requests.
func TestDebugTraces(t *testing.T) {
	ts, _ := newTestServer(t)
	x := make([]float64, 196)
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/multiply", multiplyRequest{
			engineRequest: engineRequest{Matrix: "lap"}, X: x,
		})
	}
	resp, body := getWith(t, ts.URL+"/debug/traces", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var tr tracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Seen < 3 || len(tr.Recent) < 3 || len(tr.Slowest) == 0 {
		t.Fatalf("traces: seen=%d recent=%d slowest=%d, want >=3/>=3/>0", tr.Seen, len(tr.Recent), len(tr.Slowest))
	}
	got := tr.Recent[0]
	if got.ID == "" || got.Endpoint != "/v1/multiply" || got.Status != http.StatusOK {
		t.Fatalf("trace = %+v", got)
	}
	if len(got.Spans) == 0 || got.Spans[0].Stage != StageDecode {
		t.Fatalf("trace spans = %+v, want stage tree starting with decode", got.Spans)
	}
	// Slowest is sorted slowest-first.
	for i := 1; i < len(tr.Slowest); i++ {
		if tr.Slowest[i].TotalMs > tr.Slowest[i-1].TotalMs {
			t.Fatalf("slowest not sorted: %v then %v", tr.Slowest[i-1].TotalMs, tr.Slowest[i].TotalMs)
		}
	}
}

// TestMetricsNegotiation: /metrics speaks Prometheus text only when the
// Accept header asks for it; absent or JSON Accepts keep the legacy
// JSON snapshot byte-compatible.
func TestMetricsNegotiation(t *testing.T) {
	ts, _ := newTestServer(t)
	x := make([]float64, 196)
	postJSON(t, ts.URL+"/v1/multiply", multiplyRequest{engineRequest: engineRequest{Matrix: "lap"}, X: x})

	// No Accept header (what the existing JSON consumers send) → JSON.
	resp, body := getWith(t, ts.URL+"/metrics", nil)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default Content-Type = %q, want application/json", ct)
	}
	var pm PoolMetrics
	if err := json.Unmarshal(body, &pm); err != nil {
		t.Fatalf("default /metrics not PoolMetrics JSON: %v", err)
	}
	if pm.Requests == 0 || len(pm.Engines) == 0 {
		t.Fatalf("JSON snapshot empty: %+v", pm)
	}

	// Explicit JSON stays JSON even alongside text/plain.
	resp, _ = getWith(t, ts.URL+"/metrics", map[string]string{"Accept": "application/json, text/plain"})
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Accept json Content-Type = %q", ct)
	}

	// A Prometheus scraper's Accept → text exposition, and it lints.
	resp, body = getWith(t, ts.URL+"/metrics", map[string]string{"Accept": "text/plain"})
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("prom Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	series, err := obs.LintPrometheus(string(body))
	if err != nil {
		t.Fatalf("exposition does not lint: %v\n%s", err, body)
	}
	for _, want := range []struct {
		name   string
		labels []string
	}{
		{"spmv_engine_requests_total", []string{`matrix="lap"`, `method="s2D"`, `k="4"`}},
		{"spmv_pool_requests_total", nil},
		{"spmv_tenant_requests_total", []string{`tenant="default"`}},
	} {
		found := false
		for id := range series {
			if !strings.HasPrefix(id, want.name+"{") {
				continue
			}
			ok := true
			for _, l := range want.labels {
				ok = ok && strings.Contains(id, l)
			}
			if ok {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("exposition missing series %s%v\n%s", want.name, want.labels, body)
		}
	}
	// Per-stage histograms per engine and per tenant.
	var engStage, tenStage bool
	for id := range series {
		if strings.HasPrefix(id, "spmv_engine_stage_seconds_bucket{") && strings.Contains(id, `stage="flush"`) {
			engStage = true
		}
		if strings.HasPrefix(id, "spmv_tenant_stage_seconds_bucket{") {
			tenStage = true
		}
	}
	if !engStage || !tenStage {
		t.Fatalf("stage histograms missing: engine=%v tenant=%v", engStage, tenStage)
	}

	// A second scrape after more traffic stays monotonic.
	postJSON(t, ts.URL+"/v1/multiply", multiplyRequest{engineRequest: engineRequest{Matrix: "lap"}, X: x})
	_, body2 := getWith(t, ts.URL+"/metrics", map[string]string{"Accept": "text/plain"})
	series2, err := obs.LintPrometheus(string(body2))
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintMonotonic(series, series2); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineLogEvents: a quarantine emits exactly one
// event=quarantine record and exactly one event=breaker_open record;
// the later settle emits breaker_closed.
func TestQuarantineLogEvents(t *testing.T) {
	ec := obs.NewEventCounter(obs.Nop.Handler())
	inj := faultinject.New(faultinject.Rule{Point: "flush.nan", Nth: 1, Count: 1})
	p := NewPool(Options{
		Seed:           1,
		Injector:       inj,
		PayloadChecks:  true,
		RebuildBackoff: 20 * time.Millisecond,
		Logger:         slog.New(ec),
	})
	t.Cleanup(p.Close)
	if err := p.AddMatrix("lap", testMatrix(t, 14, 14)); err != nil {
		t.Fatal(err)
	}
	h, err := p.Acquire("lap", "s2d", 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.Multiply(context.Background(), make([]float64, 196))
	h.Release()
	var fe *EngineFaultError
	if !errors.As(err, &fe) {
		t.Fatalf("multiply = %v, want *EngineFaultError", err)
	}
	waitQuarantine(t, p)
	if got := ec.Count("quarantine"); got != 1 {
		t.Fatalf("quarantine events = %d, want exactly 1", got)
	}
	if got := ec.Count("breaker_open"); got != 1 {
		t.Fatalf("breaker_open events = %d, want exactly 1", got)
	}
	if got := ec.Count("build"); got < 1 {
		t.Fatalf("build events = %d, want >= 1", got)
	}

	// Recovery: a successful rebuilt-engine flush settles the breaker.
	h2 := acquireEventually(t, p, "s2d", 4)
	if _, err := h2.Multiply(context.Background(), make([]float64, 196)); err != nil {
		t.Fatal(err)
	}
	h2.Release()
	if got := ec.Count("breaker_closed"); got != 1 {
		t.Fatalf("breaker_closed events = %d, want exactly 1", got)
	}
}

// TestDrainLogEvent: SetDraining transitions log once each way.
func TestDrainLogEvent(t *testing.T) {
	ec := obs.NewEventCounter(obs.Nop.Handler())
	p := NewPool(Options{Seed: 1, Logger: slog.New(ec)})
	t.Cleanup(p.Close)
	s := NewServer(p)
	s.SetDraining(true)
	s.SetDraining(true) // no transition, no extra event
	s.SetDraining(false)
	if got := ec.Count("drain"); got != 1 {
		t.Fatalf("drain events = %d, want 1", got)
	}
	if got := ec.Count("undrain"); got != 1 {
		t.Fatalf("undrain events = %d, want 1", got)
	}
}

// waitQuarantine blocks until the pool's quarantine counter is nonzero
// (quarantine tears down asynchronously).
func waitQuarantine(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.MetricsSnapshot().Quarantines > 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("quarantine never recorded")
}
