// Command benchmark is this repository's one benchmark: four workloads,
// each a full user session through both front doors — the direct engine
// with an iterative solve on top, then closed-loop HTTP against an
// in-process server — measured end to end in an untraced pass and layer
// by layer, from outside, in a traced pass. BENCHMARK.json at the
// repository root names the metrics and their regression bounds;
// README.md in this directory is the glossary.
//
// One workload, one pass, result as the last line of standard output
// (the form the pipeline drives, through run.sh):
//
//	benchmark -workload pl1k-s2d-k4 -seed 1 -seconds 10 -trace 0
//
// Every workload, both passes, as a table and optionally a results file;
// -repeat N runs the set N times and prints the spread:
//
//	benchmark -seed 1 [-repeat 5] [-out results.json]
//
// Two results files compared under BENCHMARK.json's bounds:
//
//	benchmark -compare before.json after.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "run this workload only and print one result line (default: all workloads, both passes)")
		seed     = fs.Int64("seed", 1, "seed the matrix and the vectors derive from")
		seconds  = fs.Float64("seconds", 10, "measuring budget of one pass of one workload")
		trace    = fs.Int("trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
		scale    = fs.Float64("scale", 1, "matrix size multiplier (the smoke test runs tiny)")
		traceOut = fs.String("trace-out", filepath.Join(".bench_build", "traces"), "directory the traced pass writes <workload>.json span files into (empty: keep spans in memory only)")
		repeat   = fs.Int("repeat", 1, "without -workload: run the full set this many times")
		out      = fs.String("out", "", "without -workload: also write the results as JSON here")
		compare  = fs.Bool("compare", false, "compare two results files (arguments: before.json after.json) under the bounds in -spec")
		specPath = fs.String("spec", "BENCHMARK.json", "with -compare: the file the bounds come from")
		force    = fs.Bool("force", false, "with -compare: compare even when the two files' host blocks differ")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *seconds <= 0 || *scale <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("need -seconds > 0, -scale > 0, -repeat >= 1, -trace 0 or 1"))
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two results files"))
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1), *specPath, *force)
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	cfg := config{seed: *seed, seconds: *seconds, scale: *scale}
	tracePath := func(w workload) string {
		if *traceOut == "" {
			return ""
		}
		return filepath.Join(*traceOut, w.Name+".json")
	}

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		cfg.w, cfg.traceOut = w, tracePath(w)
		pass := runEndToEnd
		if *trace == 1 {
			pass = runLayers
		}
		res, err := pass(cfg)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}

	rep := report{Host: readHost(), Seed: *seed, Seconds: *seconds, Scale: *scale}
	for r := 0; r < *repeat; r++ {
		var set runReport
		for _, w := range workloads {
			cfg.w, cfg.traceOut = w, tracePath(w)
			e2e, err := runEndToEnd(cfg)
			if err != nil {
				return fail(err)
			}
			layers, err := runLayers(cfg)
			if err != nil {
				return fail(err)
			}
			set.Workloads = append(set.Workloads, workloadReport{Name: w.Name, EndToEnd: e2e, PerLayer: layers})
		}
		rep.Runs = append(rep.Runs, set)
	}
	rep.print(stdout)
	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if !rep.correct() {
		return 1
	}
	return 0
}
