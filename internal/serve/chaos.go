package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve/faultinject"
)

// This file is the chaos-mode verification harness `spmvserve -selftest
// -chaos` runs: a seeded concurrent sweep against a server whose pool is
// armed with a fault injector, asserting the fault-tolerance contract
// end to end — correct responses stay bit-identical to solo execution
// while an engine faults, quarantines, rebuilds (through an injected
// rebuild failure and breaker backoff), and serves again; then a
// graceful drain completes with zero dropped in-flight requests.

// ChaosConfig drives one chaos run over real HTTP.
type ChaosConfig struct {
	BaseURL    string
	Client     *http.Client
	Matrix     string
	Methods    []string      // default ["s2d", "2d"]
	K          int           // default 4
	Clients    int           // concurrent clients, default 32
	Duration   time.Duration // load phase length, default 2s
	DeadlineMs int           // per-request deadline_ms, default 1000
	Seed       int64
	// Injector is the same injector armed in the server's pool; the
	// report reads its fire counts.
	Injector *faultinject.Injector
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if len(c.Methods) == 0 {
		c.Methods = []string{"s2d", "2d"}
	}
	if c.K == 0 {
		c.K = 4
	}
	if c.Clients <= 0 {
		c.Clients = 32
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.DeadlineMs <= 0 {
		c.DeadlineMs = 1000
	}
	return c
}

// ChaosReport is the chaos-smoke.json payload.
type ChaosReport struct {
	Seed        int64   `json:"seed"`
	Clients     int     `json:"clients"`
	DurationSec float64 `json:"duration_sec"`

	Requests    int    `json:"requests"`     // definitive 200 responses
	Mismatches  int    `json:"mismatches"`   // 200 payloads that diverged bitwise
	Retries     int    `json:"retries"`      // 429/503 sheds retried with backoff
	FaultErrors int    `json:"fault_errors"` // 5xx carrying an engine fault
	OtherErrors int    `json:"other_errors"`
	FirstError  string `json:"first_error,omitempty"` // first unexpected failure, for diagnosis

	WorkerPanics    int `json:"worker_panics"`    // injected panics that fired
	RebuildFailures int `json:"rebuild_failures"` // injected build failures that fired
	NaNCorruptions  int `json:"nan_corruptions"`  // injected payload corruptions that fired
	Quarantines     int `json:"quarantines"`      // pool quarantines observed via /metrics
	BreakerTrips    int `json:"breaker_trips"`
	Recoveries      int `json:"recoveries"` // tripped engines serving bit-identical again

	DrainInFlight  int     `json:"drain_in_flight"` // requests in flight when drain began
	DrainCompleted int     `json:"drain_completed"` // of those, completed with 200
	DrainSec       float64 `json:"drain_sec"`

	// Goroutine counts bracket the whole run (set by the orchestrator):
	// after drain and pool close, the count must fall back to the
	// pre-serve baseline or the fault path leaked workers.
	GoroutinesBefore int `json:"goroutines_before"`
	GoroutinesAfter  int `json:"goroutines_after"`
}

// Validate applies the chaos acceptance bar: injected worker panic and
// rebuild failure both fired, every correct response stayed
// bit-identical, every tripped engine recovered, and the drain dropped
// nothing within the deadline.
func (r *ChaosReport) Validate(maxDrain time.Duration) error {
	var problems []string
	if r.Requests == 0 {
		problems = append(problems, "no successful requests")
	}
	if r.Mismatches > 0 {
		problems = append(problems, fmt.Sprintf("%d bit-level mismatches", r.Mismatches))
	}
	if r.WorkerPanics < 1 {
		problems = append(problems, "injected worker panic never fired")
	}
	if r.RebuildFailures < 1 {
		problems = append(problems, "injected rebuild failure never fired")
	}
	if r.Quarantines < 1 {
		problems = append(problems, "no engine was quarantined")
	}
	if r.Recoveries < 1 {
		problems = append(problems, "no quarantined engine recovered")
	}
	if r.OtherErrors > 0 {
		problems = append(problems, fmt.Sprintf("%d unexpected errors", r.OtherErrors))
	}
	if r.DrainCompleted != r.DrainInFlight {
		problems = append(problems, fmt.Sprintf(
			"drain dropped %d of %d in-flight requests", r.DrainInFlight-r.DrainCompleted, r.DrainInFlight))
	}
	if r.DrainSec > maxDrain.Seconds() {
		problems = append(problems, fmt.Sprintf("drain took %.2fs (limit %v)", r.DrainSec, maxDrain))
	}
	if len(problems) > 0 {
		return fmt.Errorf("chaos: %s", strings.Join(problems, "; "))
	}
	return nil
}

// retryAfterOf reads the precise retry hint, preferring X-Retry-After-Ms
// over the integer-seconds Retry-After.
func retryAfterOf(resp *http.Response) time.Duration {
	if ms, err := strconv.ParseInt(resp.Header.Get("X-Retry-After-Ms"), 10, 64); err == nil && ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
		return time.Duration(s) * time.Second
	}
	return 0
}

// backoffNext computes one jittered exponential-backoff step: the
// server's hint when present (else doubling from 1ms, capped), plus up
// to 50% jitter.
func backoffNext(prev, hint time.Duration, rng *rand.Rand, limit time.Duration) time.Duration {
	d := hint
	if d <= 0 {
		d = 2 * prev
		if d <= 0 {
			d = time.Millisecond
		}
	}
	if d > limit {
		d = limit
	}
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

// chaosPost posts one multiply and classifies the outcome.
func chaosPost(ctx context.Context, cfg ChaosConfig, body []byte) (status int, y []float64, retry time.Duration, err error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		cfg.BaseURL+"/v1/multiply", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := cfg.Client.Do(hreq)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, retryAfterOf(resp), nil
	}
	var mr struct {
		Y []float64 `json:"y"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return resp.StatusCode, nil, 0, err
	}
	return resp.StatusCode, mr.Y, 0, nil
}

// chaosBody builds the request payload for one method.
func chaosBody(cfg ChaosConfig, methodName string, x []float64) ([]byte, error) {
	return json.Marshal(multiplyRequest{
		engineRequest: engineRequest{Matrix: cfg.Matrix, Method: methodName, K: cfg.K},
		X:             x,
		DeadlineMs:    cfg.DeadlineMs,
	})
}

// sameBits reports exact float64 equality, position by position.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ChaosRun executes the load phase of a chaos run: Clients concurrent
// clients hammer /v1/multiply across the configured methods while the
// armed injector crashes workers and rebuilds; every 200 is compared
// bitwise against the idle-server reference, sheds retry with jittered
// backoff honoring Retry-After, and after the window every tripped
// engine must serve the reference payload again. The drain phase is
// separate (DrainCheck) because it owns the server's shutdown.
func ChaosRun(ctx context.Context, cfg ChaosConfig) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	rep := &ChaosReport{Seed: cfg.Seed, Clients: cfg.Clients}

	// References: one fixed input per method, answered by an idle server —
	// width-1 flushes, the solo execution every later response must match.
	rng := rand.New(rand.NewSource(cfg.Seed))
	cols, _, err := matrixDims(LoadGenConfig{BaseURL: cfg.BaseURL, Client: cfg.Client, Matrix: cfg.Matrix})
	if err != nil {
		return nil, err
	}
	x := make([]float64, cols)
	for i := range x {
		x[i] = rng.Float64()*4 - 2
	}
	bodies := make([][]byte, len(cfg.Methods))
	refs := make([][]float64, len(cfg.Methods))
	for i, m := range cfg.Methods {
		if bodies[i], err = chaosBody(cfg, m, x); err != nil {
			return nil, err
		}
		status, y, _, err := chaosPost(ctx, cfg, bodies[i])
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("chaos reference %s: status %d err %v", m, status, err)
		}
		refs[i] = y
	}

	// Load phase.
	type clientTotals struct {
		ok, mismatch, retries, faults, other int
		firstErr                             string
	}
	totals := make([]clientTotals, cfg.Clients)
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mi := c % len(cfg.Methods)
			crng := rand.New(rand.NewSource(cfg.Seed + int64(c)*7919))
			tot := &totals[c]
			backoff := time.Duration(0)
			for time.Now().Before(deadline) && ctx.Err() == nil {
				status, y, hint, err := chaosPost(ctx, cfg, bodies[mi])
				switch {
				case err != nil:
					tot.other++
					if tot.firstErr == "" {
						tot.firstErr = err.Error()
					}
				case status == http.StatusOK:
					backoff = 0
					if sameBits(y, refs[mi]) {
						tot.ok++
					} else {
						tot.mismatch++
					}
				case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
					// Shed by overload, quarantine, or breaker cooldown:
					// retry after the hinted (jittered) backoff.
					tot.retries++
					if status == http.StatusServiceUnavailable {
						tot.faults++
					}
					backoff = backoffNext(backoff, hint, crng, 250*time.Millisecond)
					time.Sleep(backoff)
				case status == http.StatusGatewayTimeout:
					// Deadline hit under induced slowness; the retry loop
					// simply continues.
					tot.retries++
				default:
					tot.other++
					if tot.firstErr == "" {
						tot.firstErr = fmt.Sprintf("unexpected HTTP %d", status)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	rep.DurationSec = time.Since(t0).Seconds()
	for i := range totals {
		rep.Requests += totals[i].ok
		rep.Mismatches += totals[i].mismatch
		rep.Retries += totals[i].retries
		rep.FaultErrors += totals[i].faults
		rep.OtherErrors += totals[i].other
		if rep.FirstError == "" {
			rep.FirstError = totals[i].firstErr
		}
	}

	// Injector + pool counters.
	rep.WorkerPanics = cfg.Injector.Fired("worker.panic")
	rep.RebuildFailures = cfg.Injector.Fired("build.fail")
	rep.NaNCorruptions = cfg.Injector.Fired("flush.nan")
	pm, err := poolMetricsOf(ctx, cfg)
	if err != nil {
		return rep, err
	}
	rep.Quarantines = int(pm.Quarantines)
	var tripped []string // methods with tripped breakers (this run uses one matrix/K)
	for _, b := range pm.Breakers {
		rep.BreakerTrips += int(b.Trips)
		if b.Trips > 0 {
			tripped = append(tripped, b.Method)
		}
	}
	trippedMethod := func(m string) bool {
		for _, t := range tripped {
			// The pool canonicalizes method names; compare like loadgen does.
			if strings.EqualFold(t, m) {
				return true
			}
		}
		return false
	}

	// Recovery phase: every tripped engine must serve the bit-identical
	// reference again once its cooldown ends.
	for mi, m := range cfg.Methods {
		if !trippedMethod(m) {
			continue
		}
		recoverDeadline := time.Now().Add(10 * time.Second)
		backoff := time.Duration(0)
		crng := rand.New(rand.NewSource(cfg.Seed + 104729))
		for time.Now().Before(recoverDeadline) {
			status, y, hint, err := chaosPost(ctx, cfg, bodies[mi])
			if err == nil && status == http.StatusOK && sameBits(y, refs[mi]) {
				rep.Recoveries++
				break
			}
			backoff = backoffNext(backoff, hint, crng, 250*time.Millisecond)
			time.Sleep(backoff)
		}
	}
	return rep, nil
}

// DrainCheck is the drain phase: it launches inFlight long-running solve
// requests, then — with them in flight — calls shutdown (the caller's
// SetDraining + http.Server.Shutdown) and verifies every launched
// request completes with 200: graceful drain must finish started work,
// drop nothing, and still stop accepting promptly. Results land in rep.
func DrainCheck(ctx context.Context, cfg ChaosConfig, rep *ChaosReport, inFlight int, shutdown func() error) error {
	cfg = cfg.withDefaults()
	if inFlight <= 0 {
		inFlight = 16
	}
	_, rows, err := matrixDims(LoadGenConfig{BaseURL: cfg.BaseURL, Client: cfg.Client, Matrix: cfg.Matrix})
	if err != nil {
		return err
	}
	b := make([]float64, rows)
	for i := range b {
		b[i] = 1
	}
	// A solve with an unreachable tolerance runs all max_iter iterations —
	// hundreds of coalesced multiplies — so these requests are reliably
	// still in flight when shutdown begins. LSQR rather than CG: its
	// iterates stay finite on any matrix, so PayloadChecks can't mistake
	// solver divergence for engine corruption mid-drain.
	body, err := json.Marshal(solveRequest{
		engineRequest: engineRequest{Matrix: cfg.Matrix, Method: cfg.Methods[0], K: cfg.K},
		B:             b,
		Solver:        "lsqr",
		Tol:           1e-300,
		MaxIter:       100,
		DeadlineMs:    int(10 * time.Second / time.Millisecond),
	})
	if err != nil {
		return err
	}

	rep.DrainInFlight = inFlight
	status := make([]int, inFlight)
	var wg sync.WaitGroup
	for c := 0; c < inFlight; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
				cfg.BaseURL+"/v1/solve", bytes.NewReader(body))
			if err != nil {
				return
			}
			hreq.Header.Set("Content-Type", "application/json")
			resp, err := cfg.Client.Do(hreq)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			status[c] = resp.StatusCode
		}(c)
	}

	time.Sleep(20 * time.Millisecond) // let the wave get in flight
	// A request of the wave that was handed a connection another one had
	// just finished with leaves the connection it had started dialling
	// unused in the client's pool. The server has read nothing on it yet,
	// and http.Server.Shutdown waits five seconds before it counts such a
	// connection idle — so hang those up first.
	cfg.Client.CloseIdleConnections()
	t0 := time.Now()
	shutdownErr := shutdown()
	rep.DrainSec = time.Since(t0).Seconds()
	wg.Wait()
	for _, st := range status {
		if st == http.StatusOK {
			rep.DrainCompleted++
		}
	}
	if shutdownErr != nil {
		return fmt.Errorf("chaos drain: shutdown: %w", shutdownErr)
	}
	return nil
}

// poolMetricsOf fetches the full pool snapshot.
func poolMetricsOf(ctx context.Context, cfg ChaosConfig) (PoolMetrics, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, cfg.BaseURL+"/metrics", nil)
	if err != nil {
		return PoolMetrics{}, err
	}
	resp, err := cfg.Client.Do(hreq)
	if err != nil {
		return PoolMetrics{}, err
	}
	defer resp.Body.Close()
	var pm PoolMetrics
	err = json.NewDecoder(resp.Body).Decode(&pm)
	return pm, err
}
