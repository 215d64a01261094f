// Command spmvserve serves distributed SpMV over HTTP: a multi-tenant
// engine pool (internal/serve) fronts the compiled engines, coalescing
// concurrent /v1/multiply requests into batched SpMM flushes.
//
// Usage:
//
//	spmvserve -addr :8080                      # serve a generated matrix
//	spmvserve -mtx web.mtx,road.mtx            # serve MatrixMarket files
//	spmvserve -gen rmat_18 -scale 0.01         # serve a suite matrix
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
// The daemon only serves. What asserts its behaviour is go test
// (internal/serve: TestServingSweep, TestTenantMixOverHTTP,
// TestChaosAcceptance) and what times it is benchmark/.
//
// SIGTERM/SIGINT triggers a graceful drain: /readyz flips to 503, the
// listener stops accepting, in-flight requests finish (bounded by
// -draintimeout), then engines shut down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/serve"
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
	deadlineFlag := flag.Duration("deadline", 0, "server-side default request deadline (0 = none; requests may override via deadline_ms)")
	maxUpload := flag.Int64("maxupload", 1<<30, "largest accepted /v1/matrices upload body in bytes (413 above)")
	drainTimeout := flag.Duration("draintimeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")
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
		Logger:      logger,
	}
	if *tenantsPath != "" {
		reg, err := serve.LoadTenants(*tenantsPath)
		if err != nil {
			fatal(fmt.Errorf("bad -tenants: %w", err))
		}
		opt.Tenants = reg
	}
	pool := serve.NewPool(opt)
	defer pool.Close()

	if err := loadMatrices(pool, *mtx, *genName, *scale, *seed); err != nil {
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

// loadMatrices registers the requested matrices. With no -mtx and no
// -gen, a power-law matrix in the spmvbench style is generated so a bare
// `spmvserve` serves something immediately.
func loadMatrices(pool *serve.Pool, mtxList, genName string, scale float64, seed int64) error {
	paths := cliutil.SplitList(mtxList)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		a, err := sparse.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if err := pool.AddMatrix(name, a); err != nil {
			return err
		}
	}
	if genName == "" && len(paths) > 0 {
		return nil
	}
	if genName == "" {
		genName = "powerlaw"
	}
	if scale <= 0 || scale > 1 {
		return fmt.Errorf("bad -scale %v: want a fraction in (0,1]", scale)
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
			return fmt.Errorf("unknown -gen matrix %q", genName)
		}
		a = spec.Generate(scale, seed)
	}
	return pool.AddMatrix(genName, a)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spmvserve: %v\n", err)
	os.Exit(1)
}
