package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// multiplyBody is one multiply request for (matrix, method, k) carrying
// xs, as JSON or as a binary frame.
func multiplyBody(t *testing.T, enc, matrix, method string, k int, xs [][]float64) []byte {
	t.Helper()
	if enc == EncodingBinary {
		return mustFrame(t, &wire.Frame{Op: wire.OpMultiplyReq, Matrix: matrix, Method: method, K: k, Vectors: xs})
	}
	req := multiplyRequest{engineRequest: engineRequest{Matrix: matrix, Method: method, K: k}}
	if len(xs) == 1 {
		req.X = xs[0]
	} else {
		req.Xs = xs
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var contentTypeOf = map[string]string{EncodingJSON: "application/json", EncodingBinary: wire.ContentType}

// TestServingSweep drives closed-loop clients over real HTTP through
// every (method, encoding, width, concurrency) point: each must finish
// error-free with the scheduler's mean batch width at least 1, every
// eighth JSON request opts into the timings block and must come back
// with a trace ID and all five request stages, the binary frame must be
// at most half the JSON body at eight right-hand sides, and every engine
// the sweep left resident must name its kernel selection.
func TestServingSweep(t *testing.T) {
	p := NewPool(Options{Seed: 1})
	t.Cleanup(p.Close)
	a := testMatrix(t, 16, 16)
	if err := p.AddMatrix("lap", a); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(p))
	t.Cleanup(ts.Close)
	r := rig{client: newRigClient(t), base: ts.URL}
	const (
		k           = 4
		sampleEvery = 8
	)

	rng := rand.New(rand.NewSource(1))
	binP50 := map[string]float64{} // method/nrhs → binary p50 at concurrency 1
	for _, method := range []string{"s2d", "1d"} {
		for _, nrhs := range []int{1, 8} {
			xs := make([][]float64, nrhs)
			for i := range xs {
				xs[i] = randVec(rng, a.Cols)
			}
			bodies := map[string][]byte{}
			for _, enc := range []string{EncodingJSON, EncodingBinary} {
				bodies[enc] = multiplyBody(t, enc, "lap", method, k, xs)
			}
			if jb, bb := len(bodies[EncodingJSON]), len(bodies[EncodingBinary]); nrhs == 8 && 2*bb > jb {
				t.Errorf("%s nrhs=8: binary request %d B vs JSON %d B, want at most half", method, bb, jb)
			}
			for _, enc := range []string{EncodingJSON, EncodingBinary} {
				for _, conc := range []int{1, 8} {
					point := fmt.Sprintf("%s/%s/nrhs=%d/c=%d", method, enc, nrhs, conc)
					var mu sync.Mutex
					var samples []TimingsBlock
					before := p.MetricsSnapshot()
					tl := closedLoop(conc, after(60*time.Millisecond), 1, func(_, n int) (reply, error) {
						path, sampled := "/v1/multiply", enc == EncodingJSON && n%sampleEvery == 0
						if sampled {
							path += "?timings=1"
						}
						rp, err := r.post(path, contentTypeOf[enc], bodies[enc])
						if !sampled || err != nil || rp.status != http.StatusOK {
							return rp, err
						}
						var mr multiplyResponse
						if err := json.Unmarshal(rp.body, &mr); err != nil || mr.Timings == nil {
							return rp, fmt.Errorf("sampled reply carries no timings block (err %v)", err)
						}
						mu.Lock()
						samples = append(samples, *mr.Timings)
						mu.Unlock()
						return rp, nil
					})
					after := p.MetricsSnapshot()
					if tl.ok == 0 || tl.errs > 0 {
						t.Errorf("%s: %d ok, %d errors (first: %s)", point, tl.ok, tl.errs, tl.firstErr)
						continue
					}
					if reqs, batches := after.Requests-before.Requests, after.Batches-before.Batches; batches == 0 || reqs < batches {
						t.Errorf("%s: %d requests in %d flushes: mean batch width below 1", point, reqs, batches)
					}
					if enc == EncodingBinary && conc == 1 {
						binP50[fmt.Sprintf("%s/%d", method, nrhs)] = percentile(tl.latMs, 0.50)
					}
					if enc == EncodingJSON && len(samples) == 0 {
						t.Errorf("%s: no request sampled its timings", point)
					}
					for _, tb := range samples {
						stages := map[string]bool{}
						for _, sp := range tb.Stages {
							stages[sp.Stage] = true
							for _, ch := range sp.Spans { // queue/assemble/flush nest under schedule
								stages[ch.Stage] = true
							}
						}
						if tb.TraceID == "" {
							t.Errorf("%s: timings block without a trace ID: %+v", point, tb)
						}
						for _, st := range []string{StageDecode, StageQueue, StageAssemble, StageFlush, StageEncode} {
							if !stages[st] {
								t.Errorf("%s: timings block lacks stage %q: %+v", point, st, tb)
							}
						}
					}
				}
			}
		}
		// Logged, not asserted: a lone request costs its multiply, so one
		// binary right-hand side should not be slower than eight. The
		// assertion is TestLoneRequestAssembleBelowFlush; the numbers are
		// benchmark/'s req_bin_ms_p50 and serve.req_bin8_ms_p50.
		t.Logf("%s binary p50 at concurrency 1: nrhs=1 %.3f ms, nrhs=8 %.3f ms", method, binP50[method+"/1"], binP50[method+"/8"])
	}
	for _, em := range p.MetricsSnapshot().Engines {
		if em.Kernel == "" {
			t.Errorf("engine %s reports no kernel selection", em.EngineKey)
		}
	}
}

// TestTenantMixOverHTTP is the adversarial mixed-tenant scenario over
// real HTTP: a hot tenant offering 32 clients against a queue quota of 2
// beside a light tenant of 4. The QoS contract: the light tenant sees no
// error and a bounded p99, and the hot tenant's overflow turns into
// retried 429s — not into hard errors, and not into light-tenant latency.
func TestTenantMixOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed-tenant scenario needs a one-second window")
	}
	reg, err := NewTenantRegistry(
		TenantSpec{Name: "hot", Key: "hot-key", Weight: 1, MaxQueue: 2},
		TenantSpec{Name: "light", Key: "light-key", Weight: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(Options{Seed: 1, Tenants: reg})
	t.Cleanup(p.Close)
	a := testMatrix(t, 36, 36) // 1 296 rows, the smoke-scale matrix's size
	if err := p.AddMatrix("lap", a); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(p))
	t.Cleanup(ts.Close)
	client := newRigClient(t)
	hot := rig{client: client, base: ts.URL, auth: "hot-key"}
	light := rig{client: client, base: ts.URL, auth: "light-key"}

	body := multiplyBody(t, EncodingJSON, "lap", "s2d", 4, [][]float64{randVec(rand.New(rand.NewSource(1)), a.Cols)})
	post := func(r rig) func(int, int) (reply, error) {
		return func(int, int) (reply, error) { return r.post("/v1/multiply", "application/json", body) }
	}
	// Build the engine first, so both tenants measure steady-state serving.
	if rp, err := post(light)(0, 0); err != nil || rp.status != http.StatusOK {
		t.Fatalf("warm-up: status %d, err %v", rp.status, err)
	}

	var hotTally, lightTally tally
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); hotTally = closedLoop(32, after(time.Second), 1, post(hot)) }()
	go func() { defer wg.Done(); lightTally = closedLoop(4, after(time.Second), 2, post(light)) }()
	wg.Wait()

	lightP99 := percentile(lightTally.latMs, 0.99)
	t.Logf("light: %d ok, %d retries, %d errors, p99 %.2f ms; hot: %d ok, %d retries, %d errors",
		lightTally.ok, lightTally.retries, lightTally.errs, lightP99, hotTally.ok, hotTally.retries, hotTally.errs)
	if lightTally.ok == 0 || lightTally.errs > 0 {
		t.Errorf("light tenant: %d ok, %d errors (first: %s)", lightTally.ok, lightTally.errs, lightTally.firstErr)
	}
	const lightP99BoundMs = 250 // generous: loopback batches flush in microseconds
	if lightP99 > lightP99BoundMs {
		t.Errorf("light tenant p99 %.2f ms exceeds %d ms under the hot tenant's flood", lightP99, lightP99BoundMs)
	}
	if hotTally.retries == 0 {
		t.Error("hot tenant was never shed: quota 2 under 32 clients must 429")
	}
	if hotTally.errs > 0 {
		t.Errorf("hot tenant saw %d hard errors (first: %s); overflow must shed as 429, not fail", hotTally.errs, hotTally.firstErr)
	}
}
