// Command spmvbench regenerates the paper's evaluation tables and figure.
//
// Usage:
//
//	spmvbench -table 2              # Table II at the default scale
//	spmvbench -table 5 -scale 0.05  # Table V on larger instances
//	spmvbench -figure 1             # Figure 1 ASCII rendering
//	spmvbench -all                  # everything
//	spmvbench -table 6 -k 64,256    # override the K list
//	spmvbench -full                 # paper-scale matrices (slow)
//	spmvbench -nrhstable -nrhs 1,8  # multi-RHS method comparison table
//
// It prints the paper's modelled quantities (volume, message counts,
// modelled time per method). What times the engines and the serving
// stack is benchmark/ (bash benchmark/run.sh); kernel-backend sweeps are
// the go test benchmarks in internal/spmv.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"repro/internal/cliutil"
	"repro/internal/harness"
	"repro/internal/method"
)

func main() {
	table := flag.Int("table", 0, "table number to regenerate (1-7)")
	figure := flag.Int("figure", 0, "figure number to regenerate (1)")
	ablation := flag.Bool("ablation", false, "run the design-choice ablation instead of a paper table")
	all := flag.Bool("all", false, "regenerate every table and figure")
	scale := flag.Float64("scale", 1.0/16, "matrix scale in (0,1]; 1.0 = paper size")
	full := flag.Bool("full", false, "shorthand for -scale 1.0 (slow)")
	seed := flag.Int64("seed", 1, "base RNG seed")
	kList := flag.String("k", "", "comma-separated K override, e.g. 16,64,256")
	par := flag.Int("p", 0, "max concurrent experiment cells (default NumCPU)")
	nrhsList := flag.String("nrhs", "",
		"comma-separated right-hand-side counts for -nrhstable, e.g. 1,8,32")
	nrhsTable := flag.Bool("nrhstable", false,
		"render the multi-RHS (batched SpMM) method comparison table")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()

	cfg := harness.Config{Scale: *scale, Seed: *seed, Parallelism: *par}
	if *full {
		cfg.Scale = 1.0
	} else {
		// One pipeline for the whole run: -all then reuses matrices,
		// hypergraph models, and finished builds across tables. The cache
		// holds everything it computes for the process lifetime, so at
		// paper scale (-full) we leave it unset and let each table use a
		// private pipeline that becomes collectable when the table ends.
		cfg.Pipeline = method.NewPipeline()
	}
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		fatalUsage("bad -scale %v: want a fraction in (0, 1]", *scale)
	}
	cfg.Ks = parseIntList("-k", *kList)
	nrhs := parseIntList("-nrhs", *nrhsList)
	if *nrhsList != "" && !*nrhsTable && !*all {
		fatalUsage("-nrhs only applies to -nrhstable or -all")
	}

	stopProfile := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalUsage("bad -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalUsage("-cpuprofile: %v", err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}

	w := os.Stdout
	run := func(n int) {
		switch n {
		case 1:
			harness.Table1(w, cfg)
		case 2:
			harness.Table2(w, cfg)
		case 3:
			harness.Table3(w, cfg)
		case 4:
			harness.Table4(w, cfg)
		case 5:
			harness.Table5(w, cfg)
		case 6:
			harness.Table6(w, cfg)
		case 7:
			harness.Table7(w, cfg)
		default:
			fatalUsage("unknown table %d (tables 1-7; see also -nrhstable)", n)
		}
	}

	switch {
	case *all:
		harness.Figure1(w)
		for n := 1; n <= 7; n++ {
			run(n)
		}
		harness.TableNRHS(w, cfg, nrhs)
		harness.Ablation(w, cfg)
	case *ablation:
		harness.Ablation(w, cfg)
	case *nrhsTable:
		harness.TableNRHS(w, cfg, nrhs)
	case *figure == 1:
		harness.Figure1(w)
	case *figure != 0:
		fatalUsage("unknown figure %d (only figure 1 exists)", *figure)
	case *table != 0:
		run(*table)
	default:
		flag.Usage()
		os.Exit(2)
	}
	stopProfile()
}

// parseIntList parses a comma-separated list of positive integers via
// the shared cliutil helper, exiting with a usage message (rather than
// a panic deeper in the harness) on malformed input. An empty value
// returns nil.
func parseIntList(flagName, value string) []int {
	out, err := cliutil.ParseIntList(value)
	if err != nil {
		fatalUsage("bad %s: %v (e.g. %s 4,16,64)", flagName, err, flagName)
	}
	return out
}

// fatalUsage prints an error plus the flag usage and exits 2.
func fatalUsage(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "spmvbench: "+format+"\n\n", args...)
	flag.Usage()
	os.Exit(2)
}
