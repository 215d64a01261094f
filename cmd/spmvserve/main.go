// Command spmvserve serves distributed SpMV over HTTP: a multi-tenant
// engine pool (internal/serve) fronts the compiled engines, coalescing
// concurrent /v1/multiply requests into batched SpMM flushes.
//
// Usage:
//
//	spmvserve -addr :8080                      # serve a generated matrix
//	spmvserve -mtx web.mtx,road.mtx            # serve MatrixMarket files
//	spmvserve -gen rmat_18 -scale 0.01         # serve a suite matrix
//	spmvserve -selftest -duration 2s           # in-process load sweep
//
// Endpoints:
//
//	POST /v1/multiply   {"matrix","method","k","x":[...]}  → {"y":[...]}
//	                    ("xs":[[...]] for multi-RHS, "transpose":true for
//	                    y = A'x; Content-Type application/x-spmv-frame
//	                    switches to the binary wire protocol)
//	POST /v1/solve      {"matrix","method","k","b":[...]}  → CG (square) or
//	                    LSQR/CGNR (rectangular; optional "solver" field)
//	GET  /v1/methods    registered methods + loaded matrices
//	GET  /v1/matrices   matrix resource: list, /{name} detail, DELETE
//	POST /v1/matrices   upload a MatrixMarket body (?name=...)
//	GET  /metrics       pool + per-engine + per-tenant serving metrics
//
// -tenants names a JSON keyfile ({"tenants":[{"name","key","weight",
// "max_queue"}]}); with it every data-plane request must carry
// `Authorization: Bearer <key>`, queue quotas apply per tenant, and the
// batch scheduler interleaves tenants weighted-fair. Without it the
// server runs a single open tenant (the pre-tenancy behavior).
//
// A quickstart lives in README.md's "Serving" section.
//
// -selftest starts the server on a loopback port, runs the closed-loop
// load generator against it (serve.LoadGen — the same sweep cmd/loadgen
// offers against a remote server), writes the throughput records as
// JSON, and exits non-zero if any request failed or the coalescing
// scheduler never batched; CI runs exactly this as its serving smoke
// test.
//
// -selftest sweeps -encodings (json,binary) and -nrhs widths, and fails
// if the binary frame does not at least halve the request bytes of the
// JSON encoding at nrhs >= 8, or if at concurrency 1 a binary nrhs=1
// request is slower than an nrhs=8 one or the sampled assemble stage
// outlasts the flush (a lone request must cost its multiply; an explicit
// -maxwait linger fails both by design). -selftest -tenantmix
// additionally runs the adversarial mixed-tenant scenario: a hot tenant
// with a tiny queue quota floods the engine while light tenants keep
// posting; the run fails unless the light tenant finishes error-free
// with bounded p99 while the hot tenant's overflow lands as 429-driven
// retries.
//
// -selftest -chaos instead arms the pool's fault injector with the
// -faults schedule and runs the chaos sweep (serve.ChaosRun): 32
// concurrent clients under injected worker panics, payload corruption,
// and rebuild failures, asserting bit-identical responses from healthy
// engines, quarantine + breaker-gated recovery of the faulted one, a
// graceful drain that drops no in-flight request, and no goroutine
// leaks. The report (chaos-smoke.json shape) goes to -o or stdout; CI
// runs this as its chaos smoke test.
//
// In serving mode SIGTERM/SIGINT triggers a graceful drain: /readyz
// flips to 503, the listener stops accepting, in-flight requests finish
// (bounded by -draintimeout), then engines shut down.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/faultinject"
	"repro/internal/sparse"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	mtx := flag.String("mtx", "", "comma-separated MatrixMarket files to serve (name = file base)")
	genName := flag.String("gen", "", "suite matrix to generate and serve (see cmd/matgen), or 'powerlaw'")
	scale := flag.Float64("scale", 0.01, "generated matrix scale in (0,1]")
	seed := flag.Int64("seed", 1, "RNG seed for generation and partitioning")
	maxBatch := flag.Int("maxbatch", 8, "widest coalesced SpMM batch")
	maxWait := flag.Duration("maxwait", 0,
		"opt-in linger: how long a partial batch ages for companions (0 = flush the moment the engine is free)")
	maxQueue := flag.Int("maxqueue", 1024, "per-engine queue depth bound (admission control)")
	maxEngines := flag.Int("maxengines", 8, "resident engine cap (idle LRU eviction above it)")
	forceKernel := flag.String("forcekernel", "",
		"pin one spmv kernel backend on every engine (scalar,reg,sorted,sortedreg); empty autotunes per engine")
	defMethod := flag.String("method", "s2d", "default partitioning method for requests that omit one")
	defK := flag.Int("k", 4, "default part count for requests that omit one")
	tenantsPath := flag.String("tenants", "",
		"tenant keyfile JSON ({\"tenants\":[{\"name\",\"key\",\"weight\",\"max_queue\"}]}); empty serves one open tenant")
	selftest := flag.Bool("selftest", false, "serve on a loopback port, run the load generator, validate, exit")
	duration := flag.Duration("duration", 2*time.Second, "selftest: duration per sweep point")
	concList := flag.String("conc", "1,8,32", "selftest: offered concurrency sweep")
	methodList := flag.String("methods", "s2d", "selftest: comma-separated methods to sweep")
	encList := flag.String("encodings", "json", "selftest: comma-separated wire encodings to sweep (json,binary)")
	nrhsList := flag.String("nrhs", "1", "selftest: comma-separated right-hand-side counts to sweep")
	tenantMix := flag.Bool("tenantmix", false,
		"selftest: also run the adversarial mixed-tenant scenario (hot tenant with a tiny quota vs light tenants)")
	out := flag.String("o", "", "selftest: write loadgen JSON records here (default stdout)")
	chaos := flag.Bool("chaos", false, "selftest: chaos mode — arm the fault injector and validate the fault-tolerance contract")
	faults := flag.String("faults", "worker.panic@400,build.fail@3,flush.nan@1500",
		"chaos: seeded fault schedule, comma-separated point@nth[xcount] terms")
	deadlineFlag := flag.Duration("deadline", 0, "server-side default request deadline (0 = none; requests may override via deadline_ms)")
	maxUpload := flag.Int64("maxupload", 1<<30, "largest accepted /v1/matrices upload body in bytes (413 above)")
	drainTimeout := flag.Duration("draintimeout", 30*time.Second, "serving mode: how long a SIGTERM drain waits for in-flight requests")
	logLevel := flag.String("loglevel", "info", "structured log level (debug, info, warn, error)")
	logFormat := flag.String("logformat", "text", "structured log format (text, json)")
	debugAddr := flag.String("debugaddr", "",
		"serve net/http/pprof on this separate address (empty disables the debug listener)")
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatal(fmt.Errorf("bad -loglevel: %w", err))
	}
	logger, err := obs.NewLogger(os.Stderr, lvl, *logFormat)
	if err != nil {
		fatal(fmt.Errorf("bad -logformat: %w", err))
	}

	opt := serve.Options{
		MaxBatch:    *maxBatch,
		MaxWait:     *maxWait,
		MaxQueue:    *maxQueue,
		MaxEngines:  *maxEngines,
		Seed:        *seed,
		ForceKernel: *forceKernel,
	}
	if *tenantsPath != "" {
		reg, err := serve.LoadTenants(*tenantsPath)
		if err != nil {
			fatal(fmt.Errorf("bad -tenants: %w", err))
		}
		opt.Tenants = reg
	}
	if *tenantMix {
		if !*selftest {
			fatal(errors.New("-tenantmix requires -selftest"))
		}
		if *tenantsPath != "" {
			fatal(errors.New("-tenantmix provisions its own tenants; drop -tenants"))
		}
		// The adversarial fixture: the hot tenant's quota (2) is far below
		// its offered concurrency so its overflow must land as 429s, while
		// the light tenant keeps the default quota and 4x the weight.
		reg, err := serve.NewTenantRegistry(
			serve.TenantSpec{Name: "hot", Key: selftestHotKey, Weight: 1, MaxQueue: 2},
			serve.TenantSpec{Name: "light", Key: selftestLightKey, Weight: 4},
		)
		if err != nil {
			fatal(err)
		}
		opt.Tenants = reg
	}
	var inj *faultinject.Injector
	var events *obs.EventCounter
	if *chaos {
		if !*selftest {
			fatal(errors.New("-chaos requires -selftest"))
		}
		rules, err := faultinject.ParseSchedule(*faults)
		if err != nil {
			fatal(fmt.Errorf("bad -faults: %w", err))
		}
		inj = faultinject.New(rules...)
		opt.Injector = inj
		opt.PayloadChecks = true
		// Tight rebuild cooldown so quarantine → failed rebuild → backoff →
		// successful rebuild all fit inside the selftest window.
		opt.RebuildBackoff = 50 * time.Millisecond
		// Count structured log events so the chaos run can assert that
		// every quarantine and breaker trip emitted exactly one.
		events = obs.NewEventCounter(logger.Handler())
		logger = slog.New(events)
	}
	opt.Logger = logger
	pool := serve.NewPool(opt)
	defer pool.Close()

	defaultMatrix, err := loadMatrices(pool, *mtx, *genName, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	srv := serve.NewServer(pool)
	srv.DefaultMethod = *defMethod
	srv.DefaultK = *defK
	srv.DefaultDeadline = *deadlineFlag
	if *maxUpload > 0 {
		srv.MaxUploadBytes = *maxUpload
	}

	// The debug listener is deliberately a second socket: pprof exposes
	// heap contents and must never ride on the data-plane address.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("debug listener up", "event", "debug_listen", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				logger.Error("debug listener failed", "event", "debug_listen_failed", "err", err.Error())
			}
		}()
	}

	if *selftest {
		nrhs, err := cliutil.ParseIntList(*nrhsList)
		if err != nil {
			fatal(fmt.Errorf("bad -nrhs: %w", err))
		}
		cfg := selftestConfig{
			matrix:    defaultMatrix,
			methods:   cliutil.SplitList(*methodList),
			k:         *defK,
			conc:      *concList,
			encodings: cliutil.SplitList(*encList),
			nrhs:      nrhs,
			mix:       *tenantMix,
			duration:  *duration,
			seed:      *seed,
			out:       *out,
		}
		if *chaos {
			err = runChaos(srv, pool, inj, events, cfg)
		} else {
			err = runSelftest(srv, pool, cfg)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	for _, m := range pool.Matrices() {
		fmt.Fprintf(os.Stderr, "spmvserve: serving %s (%dx%d, %d nnz)\n", m.Name, m.Rows, m.Cols, m.NNZ)
	}
	linger := "none: flush when the engine is free"
	if *maxWait > 0 {
		linger = maxWait.String()
	}
	fmt.Fprintf(os.Stderr, "spmvserve: listening on %s (default method %s, K=%d, maxbatch %d, linger %s)\n",
		*addr, *defMethod, *defK, *maxBatch, linger)

	// Graceful drain: on SIGTERM/SIGINT flip /readyz to 503 (load
	// balancers stop routing), close the listener, and let in-flight
	// requests finish before the deferred pool.Close tears engines down.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Addr: *addr, Handler: srv}
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		srv.SetDraining(true)
		fmt.Fprintf(os.Stderr, "spmvserve: draining (no new connections; waiting up to %v for in-flight)\n", *drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		drained <- hs.Shutdown(sctx)
	}()
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	if err := <-drained; err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	fmt.Fprintln(os.Stderr, "spmvserve: drained cleanly")
}

// loadMatrices registers the requested matrices and returns the name of
// the first one (the selftest target). With no -mtx and no -gen, a
// power-law matrix in the spmvbench style is generated so a bare
// `spmvserve` serves something immediately.
func loadMatrices(pool *serve.Pool, mtxList, genName string, scale float64, seed int64) (string, error) {
	first := ""
	for _, path := range cliutil.SplitList(mtxList) {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		a, err := sparse.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if err := pool.AddMatrix(name, a); err != nil {
			return "", err
		}
		if first == "" {
			first = name
		}
	}
	if genName == "" && first != "" {
		return first, nil
	}
	if genName == "" {
		genName = "powerlaw"
	}
	if scale <= 0 || scale > 1 {
		return "", fmt.Errorf("bad -scale %v: want a fraction in (0,1]", scale)
	}
	var a *sparse.CSR
	if genName == "powerlaw" {
		n := int(320000 * scale)
		if n < 1000 {
			n = 1000
		}
		a = gen.PowerLaw(gen.PowerLawConfig{
			Rows: n, Cols: n, NNZ: 10 * n, Beta: 0.5,
			DenseRows: 2, DenseMax: n / 16, Symmetric: true, Locality: 0.9,
		}, seed)
	} else {
		spec, ok := gen.ByName(genName)
		if !ok {
			return "", fmt.Errorf("unknown -gen matrix %q", genName)
		}
		a = spec.Generate(scale, seed)
	}
	if err := pool.AddMatrix(genName, a); err != nil {
		return "", err
	}
	if first == "" {
		first = genName
	}
	return first, nil
}

type selftestConfig struct {
	matrix    string
	methods   []string
	k         int
	conc      string
	encodings []string
	nrhs      []int
	mix       bool
	duration  time.Duration
	seed      int64
	out       string
}

// Bearer keys the -tenantmix fixture provisions. They gate a loopback
// selftest server only, so fixed values keep the run reproducible.
const (
	selftestHotKey   = "selftest-hot-key"
	selftestLightKey = "selftest-light-key"
)

// runSelftest serves on a loopback port, sweeps the load generator
// against it over real HTTP (methods x encodings x nrhs x concurrency),
// writes the records, and validates them: any transport/HTTP error, a
// mean batch width below 1, an engine without a kernel selection, or a
// binary frame that fails to halve the JSON request bytes at nrhs >= 8
// fails. With cfg.mix the adversarial mixed-tenant scenario runs on the
// same server afterwards and its QoS contract is validated too. The
// per-engine summary includes the kernel backends each resident engine
// runs.
func runSelftest(srv *serve.Server, pool *serve.Pool, cfg selftestConfig) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln) //nolint:errcheck // closed via Shutdown below
	defer hs.Shutdown(context.Background())
	base := "http://" + ln.Addr().String()

	conc, err := cliutil.ParseIntList(cfg.conc)
	if err != nil {
		return fmt.Errorf("bad -conc: %w", err)
	}
	lcfg := serve.LoadGenConfig{
		BaseURL:     base,
		Matrix:      cfg.matrix,
		Methods:     cfg.methods,
		K:           cfg.k,
		Concurrency: conc,
		Encodings:   cfg.encodings,
		Duration:    cfg.duration,
		Seed:        cfg.seed,
	}
	if cfg.mix {
		// The -tenantmix registry keys the server, so the sweep itself
		// runs authenticated as the light tenant.
		lcfg.AuthKey, lcfg.Tenant = selftestLightKey, "light"
	}
	var recs []serve.Record
	for _, nrhs := range cfg.nrhs {
		lcfg.NRHS = nrhs
		r, err := serve.LoadGen(context.Background(), lcfg)
		if err != nil {
			return err
		}
		recs = append(recs, r...)
	}

	// First of two /metrics scrapes: the exposition must lint as
	// Prometheus text, and the second scrape (after the rest of the run)
	// must not move any counter backwards. In-process because CI's shell
	// cannot reach the ephemeral loopback port.
	prom1, err := scrapeProm(base)
	if err != nil {
		return err
	}

	var mixRecs []serve.Record
	if cfg.mix {
		mixRecs, err = serve.MixedLoad(context.Background(), serve.MixedLoadConfig{
			BaseURL:  base,
			Matrix:   cfg.matrix,
			Method:   cfg.methods[0],
			K:        cfg.k,
			HotKey:   selftestHotKey,
			LightKey: selftestLightKey,
			Duration: cfg.duration,
			Seed:     cfg.seed,
		})
		if err != nil {
			return err
		}
	}

	w := os.Stdout
	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(append(append([]serve.Record{}, recs...), mixRecs...)); err != nil {
		return err
	}

	failed := false
	jsonReqBytes := map[string]int{} // method/nrhs -> JSON request size
	for _, r := range recs {
		status := "ok"
		switch {
		case r.Errors > 0 || r.Requests == 0:
			status = "FAIL (errors)"
			failed = true
		case r.MeanBatch < 1:
			status = "FAIL (no batching)"
			failed = true
		}
		if r.Encoding == serve.EncodingJSON {
			jsonReqBytes[fmt.Sprintf("%s/%d", r.Method, r.NRHS)] = r.ReqBytes
		}
		fmt.Fprintf(os.Stderr,
			"selftest %-8s enc=%-6s nrhs=%-2d conc=%-3d %6d req %5.0f req/s batch %.2f p50 %.2fms p99 %.2fms %6dB  %s\n",
			r.Method, r.Encoding, r.NRHS, r.Concurrency, r.Requests, r.RPS,
			r.MeanBatch, r.P50Ms, r.P99Ms, r.ReqBytes, status)
	}
	// Stage-latency table: JSON sweep points sample the server's own
	// timing breakdown, so the records carry per-stage percentiles. At
	// concurrency 1 the closed loop admits each request to an idle
	// runner, so queue time must not dominate — a queue p99 above the
	// flush p99 there means the stage attribution regressed — and the
	// work-conserving scheduler starts the engine at once: an assemble
	// p50 above the flush p50 means a lone request is lingering again.
	for _, r := range recs {
		if len(r.StageP99Ms) == 0 {
			continue
		}
		var b strings.Builder
		for _, st := range []string{
			serve.StageDecode, serve.StageAdmission, serve.StageQueue,
			serve.StageAssemble, serve.StageFlush, serve.StageEncode,
		} {
			if p99, ok := r.StageP99Ms[st]; ok {
				fmt.Fprintf(&b, "  %s %.3f/%.3f", st, r.StageP50Ms[st], p99)
			}
		}
		fmt.Fprintf(os.Stderr, "selftest stages %-8s nrhs=%-2d conc=%-3d p50/p99 ms:%s\n",
			r.Method, r.NRHS, r.Concurrency, b.String())
		if r.Concurrency == 1 && r.StageP99Ms[serve.StageQueue] > r.StageP99Ms[serve.StageFlush] {
			fmt.Fprintf(os.Stderr,
				"selftest FAIL: queue p99 %.3fms exceeds flush p99 %.3fms at concurrency 1 (%s nrhs=%d)\n",
				r.StageP99Ms[serve.StageQueue], r.StageP99Ms[serve.StageFlush], r.Method, r.NRHS)
			failed = true
		}
		if r.Concurrency == 1 && r.StageP50Ms[serve.StageAssemble] > r.StageP50Ms[serve.StageFlush] {
			fmt.Fprintf(os.Stderr,
				"selftest FAIL: assemble p50 %.3fms exceeds flush p50 %.3fms at concurrency 1 (%s nrhs=%d)\n",
				r.StageP50Ms[serve.StageAssemble], r.StageP50Ms[serve.StageFlush], r.Method, r.NRHS)
			failed = true
		}
	}
	// A request costs its multiply: alone on the server, one binary
	// right-hand side must not be slower than eight of them. (It was,
	// while a lone request aged through a linger that a full batch skips.)
	binP50 := map[string]float64{} // method/nrhs -> binary p50 at concurrency 1
	for _, r := range recs {
		if r.Encoding == serve.EncodingBinary && r.Concurrency == 1 {
			binP50[fmt.Sprintf("%s/%d", r.Method, r.NRHS)] = r.P50Ms
		}
	}
	for _, m := range cfg.methods {
		one, ok1 := binP50[m+"/1"]
		eight, ok8 := binP50[m+"/8"]
		if ok1 && ok8 && one > eight {
			fmt.Fprintf(os.Stderr,
				"selftest FAIL: binary nrhs=1 p50 %.3fms exceeds nrhs=8 p50 %.3fms at concurrency 1 (%s)\n",
				one, eight, m)
			failed = true
		}
	}
	// The wire-protocol acceptance: at nrhs >= 8 the binary frame must
	// carry at most half the bytes the JSON encoding needs for the same
	// request.
	for _, r := range recs {
		if r.Encoding != serve.EncodingBinary || r.NRHS < 8 {
			continue
		}
		jb, ok := jsonReqBytes[fmt.Sprintf("%s/%d", r.Method, r.NRHS)]
		if ok && 2*r.ReqBytes > jb {
			fmt.Fprintf(os.Stderr, "selftest FAIL: binary request %dB vs JSON %dB at %s nrhs=%d (want <= half)\n",
				r.ReqBytes, jb, r.Method, r.NRHS)
			failed = true
		}
	}
	if err := validateMix(mixRecs, &failed); err != nil {
		return err
	}
	for _, em := range pool.MetricsSnapshot().Engines {
		status := "ok"
		if em.Kernel == "" {
			status = "FAIL (no kernel selection)"
			failed = true
		}
		fmt.Fprintf(os.Stderr, "selftest engine %s schedule=%s kernel=[%s]  %s\n",
			em.EngineKey, em.Schedule, em.Kernel, status)
	}
	prom2, err := scrapeProm(base)
	if err != nil {
		return err
	}
	if err := obs.LintMonotonic(prom1, prom2); err != nil {
		return fmt.Errorf("/metrics between scrapes: %w", err)
	}
	fmt.Fprintf(os.Stderr, "selftest /metrics: %d series, exposition lints, counters monotonic across scrapes\n", len(prom2))
	if failed {
		return fmt.Errorf("selftest failed (see records above)")
	}
	fmt.Fprintln(os.Stderr, "selftest ok")
	return nil
}

// scrapeProm GETs /metrics asking for the Prometheus text exposition
// and lints it, returning the parsed series values keyed by series ID.
func scrapeProm(base string) (map[string]float64, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		return nil, fmt.Errorf("GET /metrics (Accept: text/plain): Content-Type %q, want %q", ct, obs.PromContentType)
	}
	series, err := obs.LintPrometheus(string(body))
	if err != nil {
		return nil, fmt.Errorf("/metrics exposition: %w", err)
	}
	return series, nil
}

// validateMix checks the mixed-tenant QoS contract: the light tenant
// finished error-free with bounded p99 while the hot tenant's overflow
// became retried 429s rather than light-tenant latency.
func validateMix(mixRecs []serve.Record, failed *bool) error {
	if len(mixRecs) == 0 {
		return nil
	}
	byTenant := map[string]serve.Record{}
	for _, r := range mixRecs {
		byTenant[r.Tenant] = r
		fmt.Fprintf(os.Stderr,
			"selftest mix %-5s conc=%-3d %6d req %4d retries %3d errors p50 %.2fms p99 %.2fms\n",
			r.Tenant, r.Concurrency, r.Requests, r.Retries, r.Errors, r.P50Ms, r.P99Ms)
	}
	hot, light := byTenant["hot"], byTenant["light"]
	const lightP99BoundMs = 250 // generous: loopback batches flush in microseconds
	switch {
	case light.Requests == 0 || light.Errors > 0:
		fmt.Fprintf(os.Stderr, "selftest FAIL: light tenant saw errors (%d req, %d errors)\n",
			light.Requests, light.Errors)
		*failed = true
	case light.P99Ms > lightP99BoundMs:
		fmt.Fprintf(os.Stderr, "selftest FAIL: light tenant p99 %.2fms exceeds %dms under the hot tenant's flood\n",
			light.P99Ms, lightP99BoundMs)
		*failed = true
	case hot.Retries == 0:
		fmt.Fprintln(os.Stderr, "selftest FAIL: hot tenant was never shed (quota 2 at conc 32 must 429)")
		*failed = true
	case hot.Errors > 0:
		fmt.Fprintf(os.Stderr, "selftest FAIL: hot tenant saw hard errors (%d); overflow must shed as 429, not fail\n",
			hot.Errors)
		*failed = true
	}
	return nil
}

// runChaos serves on a loopback port with the fault injector armed and
// runs the chaos acceptance: a 32-client sweep under injected worker
// panics and rebuild failures (serve.ChaosRun), then a drain check that
// shuts the HTTP server down with solve requests in flight
// (serve.DrainCheck), then a goroutine-leak check after the pool closes.
// The /readyz contract is probed at the drain boundary. The report is
// written as JSON before validation so a failing run still leaves its
// evidence behind. events counts the structured log records the pool
// emitted; the run fails unless every quarantine and breaker trip
// logged exactly one event.
func runChaos(srv *serve.Server, pool *serve.Pool, inj *faultinject.Injector, events *obs.EventCounter, cfg selftestConfig) error {
	gBefore := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln) //nolint:errcheck // closed via Shutdown below

	methods := cfg.methods
	if len(methods) < 2 {
		// Chaos wants one engine to fault while another stays healthy.
		methods = []string{"s2d", "2d"}
	}
	// A per-client idle connection each: the default per-host idle cap (2)
	// churns connections under 32 concurrent posters, and a stale reused
	// connection surfaces as a spurious transport EOF on a POST.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
	}}
	ctx := context.Background()
	ccfg := serve.ChaosConfig{
		BaseURL:  "http://" + ln.Addr().String(),
		Client:   client,
		Matrix:   cfg.matrix,
		Methods:  methods,
		K:        cfg.k,
		Clients:  32,
		Duration: cfg.duration,
		Seed:     cfg.seed,
		Injector: inj,
	}

	rep, err := serve.ChaosRun(ctx, ccfg)
	if err != nil {
		hs.Shutdown(context.Background()) //nolint:errcheck
		return err
	}

	// Drain with requests in flight. The shutdown closure is the real
	// SIGTERM path: flip draining, confirm /readyz sheds while /healthz
	// stays live, then Shutdown and wait for in-flight work.
	drainErr := serve.DrainCheck(ctx, ccfg, rep, 16, func() error {
		srv.SetDraining(true)
		if err := expectStatus(client, ccfg.BaseURL+"/readyz", http.StatusServiceUnavailable); err != nil {
			return err
		}
		if err := expectStatus(client, ccfg.BaseURL+"/healthz", http.StatusOK); err != nil {
			return err
		}
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	})

	// Final pool snapshot before Close, for the log-event contract: the
	// counts must match what actually happened, including anything after
	// ChaosRun's own mid-run snapshot.
	finalPM := pool.MetricsSnapshot()
	trips := 0
	for _, b := range finalPM.Breakers {
		trips += int(b.Trips)
	}

	// Everything is down: engines must be gone too before counting.
	pool.Close()
	client.CloseIdleConnections()
	rep.GoroutinesBefore = gBefore
	for wait := time.Now().Add(2 * time.Second); ; {
		rep.GoroutinesAfter = runtime.NumGoroutine()
		if rep.GoroutinesAfter <= gBefore+2 || !time.Now().Before(wait) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	w := os.Stdout
	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr,
		"chaos: %d ok, %d retries, %d mismatches; panics %d, rebuild failures %d, quarantines %d, recoveries %d; drain %d/%d in %.2fs; goroutines %d→%d\n",
		rep.Requests, rep.Retries, rep.Mismatches,
		rep.WorkerPanics, rep.RebuildFailures, rep.Quarantines, rep.Recoveries,
		rep.DrainInFlight, rep.DrainCompleted, rep.DrainSec,
		rep.GoroutinesBefore, rep.GoroutinesAfter)
	if drainErr != nil {
		return drainErr
	}
	if err := rep.Validate(5 * time.Second); err != nil {
		return err
	}
	if rep.GoroutinesAfter > gBefore+2 {
		return fmt.Errorf("chaos: goroutine leak: %d before, %d after drain+close", gBefore, rep.GoroutinesAfter)
	}
	// Structured-logging contract: state transitions log exactly once.
	// A missing event means an unobservable quarantine; an extra one
	// means a transition fired twice.
	fmt.Fprintf(os.Stderr, "chaos: log events quarantine=%d breaker_open=%d breaker_closed=%d (pool: quarantines %d, trips %d)\n",
		events.Count("quarantine"), events.Count("breaker_open"), events.Count("breaker_closed"),
		finalPM.Quarantines, trips)
	if got := events.Count("quarantine"); got != int(finalPM.Quarantines) {
		return fmt.Errorf("chaos: %d quarantine log events, want %d (one per pool quarantine)", got, finalPM.Quarantines)
	}
	if got := events.Count("breaker_open"); got != trips {
		return fmt.Errorf("chaos: %d breaker_open log events, want %d (one per breaker trip)", got, trips)
	}
	fmt.Fprintln(os.Stderr, "chaos selftest ok")
	return nil
}

// expectStatus GETs url and demands the given status code.
func expectStatus(client *http.Client, url string, want int) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s: HTTP %d, want %d", url, resp.StatusCode, want)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spmvserve: %v\n", err)
	os.Exit(1)
}
