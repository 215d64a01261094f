package serve

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"
)

// The one closed-loop HTTP client of this package's tests: the serving
// sweep, the mixed-tenant scenario and the chaos run all drive a real
// httptest server through it.

// rig posts to one server as one tenant.
type rig struct {
	client *http.Client
	base   string // the server's URL
	auth   string // bearer key; empty against an open server
}

// newRigClient keeps an idle connection per concurrent poster: the
// default per-host idle cap (2) churns connections under 32 of them, and
// a stale reused connection surfaces as a spurious transport EOF on a
// POST.
func newRigClient(t *testing.T) *http.Client {
	tr := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// reply is one response: its status, the server's retry hint when it
// shed the request, and the body.
type reply struct {
	status int
	retry  time.Duration
	body   []byte
}

func (r rig) post(path, contentType string, body []byte) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, r.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", contentType)
	if r.auth != "" {
		req.Header.Set("Authorization", "Bearer "+r.auth)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, retry: retryAfterOf(resp), body: raw}, err
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
// server's hint when present (else doubling from 1ms), capped at limit,
// plus up to 50% jitter.
func backoffNext(prev, hint time.Duration, rng *rand.Rand, limit time.Duration) time.Duration {
	d := hint
	if d <= 0 {
		d = max(2*prev, time.Millisecond)
	}
	d = min(d, limit)
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

// tally is what a closed loop saw. A shed (429, 503) or a missed
// deadline (504) is a retry, not an error; errs counts transport
// failures, any other status, and whatever the caller's own check of a
// 200 rejected.
type tally struct {
	ok, retries, errs int
	latMs             []float64 // one per 200, ascending
	firstErr          string
}

// after is the stop condition of a closed loop that runs for d.
func after(d time.Duration) func() bool {
	deadline := time.Now().Add(d)
	return func() bool { return !time.Now().Before(deadline) }
}

// closedLoop runs clients posters until stop reports true, each calling
// do(client, n) for its n-th request as fast as the server answers and
// backing off as the server hints when it sheds. do makes the request and
// returns an error for a 200 whose payload it does not accept.
func closedLoop(clients int, stop func() bool, seed int64, do func(c, n int) (reply, error)) tally {
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl := &tallies[c]
			rng := rand.New(rand.NewSource(seed + int64(c)*7919))
			backoff := time.Duration(0)
			for n := 0; !stop(); n++ {
				start := time.Now()
				rp, err := do(c, n)
				switch {
				case err != nil:
					tl.errs++
					if tl.firstErr == "" {
						tl.firstErr = err.Error()
					}
				case rp.status == http.StatusOK:
					backoff = 0
					tl.ok++
					tl.latMs = append(tl.latMs, msSince(start))
				case rp.status == http.StatusTooManyRequests || rp.status == http.StatusServiceUnavailable:
					tl.retries++
					backoff = backoffNext(backoff, rp.retry, rng, 250*time.Millisecond)
					time.Sleep(backoff)
				case rp.status == http.StatusGatewayTimeout:
					tl.retries++
				default:
					tl.errs++
					if tl.firstErr == "" {
						tl.firstErr = fmt.Sprintf("unexpected HTTP %d: %s", rp.status, rp.body)
					}
				}
			}
		}()
	}
	wg.Wait()
	var sum tally
	for _, tl := range tallies {
		sum.ok += tl.ok
		sum.retries += tl.retries
		sum.errs += tl.errs
		sum.latMs = append(sum.latMs, tl.latMs...)
		if sum.firstErr == "" {
			sum.firstErr = tl.firstErr
		}
	}
	sort.Float64s(sum.latMs)
	return sum
}
