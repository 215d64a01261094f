// Package repro reproduces "Semi-two-dimensional partitioning for parallel
// sparse matrix-vector multiplication" (Kayaaslan, Uçar, Aykanat; PCO
// 2015, IPDPS Workshops).
//
// The library lives under internal/: sparse matrices (internal/sparse),
// synthetic workload generators (internal/gen), bipartite matching and
// Dulmage–Mendelsohn decomposition (internal/bipartite), hypergraph models
// and a multilevel partitioner (internal/hypergraph, internal/partition),
// the s2D core (internal/core), the comparison methods
// (internal/baselines), the method registry and memoizing build pipeline
// through which every consumer constructs partitions (internal/method), a
// message-passing SpMV engine that compiles each schedule into an
// allocation-free execution plan of steps over K virtual processors, run
// by the caller and at most GOMAXPROCS-1 parked helpers, serving
// single-vector Multiply, batched multi-RHS MultiplyBlock/MultiplyMulti
// with one packet per peer per phase at any width, and the transpose
// product MultiplyTranspose (plus its blocked twins), which reuses each
// plan's packets with the phases reversed (internal/spmv), iterative
// solvers including block CG, block BiCGSTAB, multi-seed PageRank over
// one SpMM per iteration, and the least-squares pair LSQR/CGNR over
// (Ax, Aᵀx) (internal/solver), the α–β cost model with its batched
// EvaluateNRHS and duality-stating EvaluateTranspose extensions
// (internal/model), and the experiment harness regenerating the paper's
// Tables I–VII and Figure 1 — plus the multi-RHS scaling table the paper
// never measured — as data-driven loops over the registry
// (internal/harness), and the multi-tenant serving subsystem — a
// refcounted LRU engine pool with a request-coalescing batch scheduler
// and an HTTP JSON API (internal/serve, cmd/spmvserve).
//
// See README.md for a tour and DESIGN.md for the system inventory and
// layer contracts. The benchmarks in bench_test.go regenerate one table
// or figure each; what times the engines and the serving stack end to
// end is the benchmark/ module (BENCHMARK.json, bash benchmark/run.sh).
package repro
