package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// host describes the machine a results file was measured on. Timings
// from different hosts do not compare, so -compare refuses a pair whose
// host blocks differ unless forced.
type host struct {
	CPU        string   `json:"cpu"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Platform   string   `json:"platform"`
	Caches     []string `json:"caches"` // cpu0's, e.g. "L2 Unified 2560K"
}

// readHost fills the block from the runtime and, where the platform has
// them, /proc/cpuinfo and sysfs; what cannot be read stays empty.
func readHost() host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if key, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(key) == "model name" {
				h.CPU = strings.TrimSpace(val)
				break
			}
		}
		f.Close()
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*") // a fixed pattern cannot be malformed
	sort.Strings(dirs)
	for _, dir := range dirs {
		field := func(name string) string {
			buf, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return "?"
			}
			return strings.TrimSpace(string(buf))
		}
		h.Caches = append(h.Caches, fmt.Sprintf("L%s %s %s", field("level"), field("type"), field("size")))
	}
	return h
}

func (h host) equal(o host) bool {
	return h.CPU == o.CPU && h.NumCPU == o.NumCPU && h.GOMAXPROCS == o.GOMAXPROCS &&
		h.GoVersion == o.GoVersion && h.Platform == o.Platform && strings.Join(h.Caches, ";") == strings.Join(o.Caches, ";")
}

// report is a results file: the full workload set, run one or more
// times on one host at one seed.
type report struct {
	Host    host        `json:"host"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Scale   float64     `json:"scale"`
	Runs    []runReport `json:"runs"`
}

type runReport struct {
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name     string `json:"name"`
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

func (r report) correct() bool {
	for _, run := range r.Runs {
		for _, w := range run.Workloads {
			if !w.EndToEnd.Correct || !w.PerLayer.Correct {
				return false
			}
		}
	}
	return true
}

// series collects one metric's values on one workload across the runs.
func (r report) series(workload, metric string, layer bool) []float64 {
	var vals []float64
	for _, run := range r.Runs {
		for _, w := range run.Workloads {
			if w.Name != workload {
				continue
			}
			res := w.EndToEnd
			if layer {
				res = w.PerLayer
			}
			if m, ok := res.Metrics[metric]; ok {
				vals = append(vals, m.Value)
			}
		}
	}
	return vals
}

// print writes, per workload, every metric's minimum, median and maximum
// over the runs; for a bounded metric measured four times or more (fewer
// have no quartiles to speak of) it adds the interquartile spread as a
// share of the median, over the bound.
func (r report) print(w io.Writer) {
	fmt.Fprintf(w, "host: %s, %d cpus, GOMAXPROCS %d, %s %s, caches %s\n",
		r.Host.CPU, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Platform, strings.Join(r.Host.Caches, ", "))
	fmt.Fprintf(w, "seed %d, %gs per pass, scale %g, %d run(s); closed loop: 1 client (p50, p95), %d clients (req_per_s)\n",
		r.Seed, r.Seconds, r.Scale, len(r.Runs), clientsMulti())
	for _, wl := range workloads {
		attempted, failed := r.operations(wl.Name)
		fmt.Fprintf(w, "\n%s: %d operations attempted, %d failed\n", wl.Name, attempted, failed)
		fmt.Fprintf(w, "  %-34s %-6s %14s %14s %14s  %s\n", "metric", "unit", "min", "median", "max", "spread/bound")
		row := func(d metricDef, layer bool) {
			vals := r.series(wl.Name, d.Name, layer)
			if len(vals) == 0 {
				return
			}
			note := ""
			if d.Bound > 0 && len(vals) >= 4 {
				note = fmt.Sprintf("%.3f/%.2f", iqrShare(vals), d.Bound)
			}
			fmt.Fprintf(w, "  %-34s %-6s %14.6g %14.6g %14.6g  %s\n", d.Name, d.Unit, quantile(vals, 0), median(vals), quantile(vals, 1), note)
		}
		for _, d := range endToEnd {
			row(d, false)
		}
		for _, d := range perLayer {
			row(d, true)
		}
	}
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, into any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles applies the spec's bounds to two results files: for every
// end-to-end metric on every workload, after's median may be worse than
// before's by at most the bound, and after may not fail more operations
// than before. A pair that did not regress but whose own runs spread
// wider than the bound on either side is marked unresolved, not passed,
// unless every run of after beats every run of before. It reports whether
// anything regressed.
func compareFiles(w io.Writer, beforePath, afterPath, specPath string, force bool) (regressed bool, err error) {
	var before, after report
	var sp spec
	if err := readJSON(beforePath, &before); err != nil {
		return false, err
	}
	if err := readJSON(afterPath, &after); err != nil {
		return false, err
	}
	if err := readJSON(specPath, &sp); err != nil {
		return false, err
	}
	if !before.Host.equal(after.Host) {
		if !force {
			return false, fmt.Errorf("host blocks differ (%+v vs %+v); timings from different hosts do not compare — pass -force to compare anyway", before.Host, after.Host)
		}
		fmt.Fprintln(w, "warning: host blocks differ; comparing because of -force")
	}
	fmt.Fprintf(w, "%-18s %-20s %14s %14s %9s %6s\n", "workload", "metric", "before", "after", "worse by", "bound")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			b, a := before.series(wl.Name, m.Name, false), after.series(wl.Name, m.Name, false)
			if len(b) == 0 || len(a) == 0 {
				return false, fmt.Errorf("%s on %s is missing from one of the files", m.Name, wl.Name)
			}
			mb, ma := median(b), median(a)
			worse := (ma - mb) / mb
			if m.Better == "higher" {
				worse = (mb - ma) / mb
			}
			verdict := ""
			if worse > m.Bound {
				verdict, regressed = "  REGRESSION", true
			} else if spread := max(iqrShare(b), iqrShare(a)); spread > m.Bound && !allBetter(a, b, m.Better) {
				verdict = fmt.Sprintf("  unresolved (runs spread %.0f%%)", 100*spread)
			}
			fmt.Fprintf(w, "%-18s %-20s %14.6g %14.6g %+8.1f%% %5.0f%%%s\n", wl.Name, m.Name, mb, ma, 100*worse, 100*m.Bound, verdict)
		}
		if fb, fa := before.failedShare(wl.Name), after.failedShare(wl.Name); fa > fb {
			fmt.Fprintf(w, "%-18s %-20s %14.6g %14.6g  REGRESSION (any rise is one)\n", wl.Name, "failed_share", fb, fa)
			regressed = true
		}
	}
	return regressed, nil
}

// allBetter reports whether every value of a beats every value of b.
func allBetter(a, b []float64, better string) bool {
	if better == "higher" {
		return quantile(a, 0) > quantile(b, 1)
	}
	return quantile(a, 1) < quantile(b, 0)
}

// operations counts what one workload attempted and failed, both passes,
// all runs.
func (r report) operations(workload string) (attempted, failed int64) {
	for _, run := range r.Runs {
		for _, w := range run.Workloads {
			if w.Name == workload {
				attempted += w.EndToEnd.Attempted + w.PerLayer.Attempted
				failed += w.EndToEnd.Failed + w.PerLayer.Failed
			}
		}
	}
	return attempted, failed
}

// failedShare is operations failed over operations attempted.
func (r report) failedShare(workload string) float64 {
	attempted, failed := r.operations(workload)
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
