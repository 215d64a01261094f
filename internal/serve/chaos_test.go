package serve

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/serve/faultinject"
)

// TestChaosAcceptance runs the full chaos contract in-process, the same
// harness `spmvserve -selftest -chaos` drives: 16 concurrent clients
// over two engines while the seeded injector panics a worker and fails
// a rebuild, then a drain with solves in flight, then a goroutine-leak
// check. Everything a production operator relies on — bit-identical
// healthy responses, quarantine + breaker-paced recovery, zero dropped
// in-flight work — is asserted on the report, under the work-conserving
// default and again with a linger.
func TestChaosAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos acceptance needs a multi-second window")
	}
	forEachLingerMode(t, testChaosAcceptance)
}

func testChaosAcceptance(t *testing.T, opt Options) {
	g0 := runtime.NumGoroutine()

	// Schedule: the 80th worker turn panics (mid-load: each dispatch burns
	// K=4 turns, and the reference phase only spends a handful); build 3
	// — the rebuild after the quarantine, following the two initial
	// engine builds — fails once.
	rules, err := faultinject.ParseSchedule("worker.panic@80,build.fail@3")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(rules...)
	opt.Seed = 1
	opt.Injector = inj
	opt.PayloadChecks = true
	opt.RebuildBackoff = 20 * time.Millisecond
	p := NewPool(opt)
	if err := p.AddMatrix("lap", testMatrix(t, 16, 16)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p)
	hs := httptest.NewServer(srv)

	ctx := context.Background()
	cfg := ChaosConfig{
		BaseURL:  hs.URL,
		Client:   hs.Client(),
		Matrix:   "lap",
		Methods:  []string{"s2d", "2d"},
		K:        4,
		Clients:  16,
		Duration: 700 * time.Millisecond,
		Seed:     9,
		Injector: inj,
	}
	rep, err := ChaosRun(ctx, cfg)
	if err != nil {
		t.Fatalf("ChaosRun: %v", err)
	}

	// Drain with work in flight, through the real shutdown path.
	err = DrainCheck(ctx, cfg, rep, 8, func() error {
		srv.SetDraining(true)
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Config.Shutdown(sctx)
	})
	if err != nil {
		t.Fatalf("DrainCheck: %v", err)
	}
	p.Close()

	if err := rep.Validate(5 * time.Second); err != nil {
		t.Fatalf("%v\nreport: %+v", err, rep)
	}

	// No leaked workers or runners: the count settles back to (about) the
	// pre-test baseline once engines, schedulers, and the server are gone.
	hs.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= g0+3 {
			break
		} else if !time.Now().Before(deadline) {
			t.Fatalf("goroutines: %d before, %d after chaos + close — leak in the fault path", g0, g)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
