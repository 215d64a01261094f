package main

import (
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs both passes of all four workloads at a tiny scale and
// checks what the pipeline relies on: every metric BENCHMARK.json names
// is emitted exactly once per workload with its unit, nothing else is,
// the code's metric tables and BENCHMARK.json agree, and a healthy run
// fails nothing and allocates nothing per multiply.
func TestSmoke(t *testing.T) {
	var sp spec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("BENCHMARK.json paths = %v, want [benchmark]", sp.Paths)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.Name || sp.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, sp.Workloads[i].Name, sp.Workloads[i].Why, w.Name, w.Why)
		}
	}
	sameDefs(t, "end_to_end", sp.EndToEnd, endToEnd, true)
	sameDefs(t, "per_layer", sp.PerLayer, perLayer, false)

	for _, w := range workloads {
		cfg := config{w: w, seed: 1, seconds: 0.25, scale: 0.01,
			traceOut: filepath.Join(t.TempDir(), w.Name+".json")}
		for _, pass := range []struct {
			name string
			run  func(config) (result, error)
			defs []metricDef
		}{{"end_to_end", runEndToEnd, endToEnd}, {"per_layer", runLayers, perLayer}} {
			res, err := pass.run(cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, pass.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", w.Name, pass.name, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(pass.defs) {
				t.Errorf("%s %s: %d metrics emitted, %d defined", w.Name, pass.name, len(res.Metrics), len(pass.defs))
			}
			for _, d := range pass.defs {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s %s: metric %s not emitted", w.Name, pass.name, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s %s: metric %s has unit %q, want %q", w.Name, pass.name, d.Name, m.Unit, d.Unit)
				}
			}
			if m, ok := res.Metrics["spmv.allocs_per_op"]; ok && m.Value != 0 {
				t.Errorf("%s: spmv.allocs_per_op = %g, want 0", w.Name, m.Value)
			}
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// sameDefs checks that BENCHMARK.json and the code list the same metrics
// in the same order with the same unit, direction and (where bounded)
// bound, under names the schema accepts, each used once.
func sameDefs(t *testing.T, section string, fromSpec []specMetric, fromCode []metricDef, bounded bool) {
	t.Helper()
	if len(fromSpec) != len(fromCode) {
		t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", section, len(fromSpec), len(fromCode))
	}
	seen := make(map[string]bool)
	for i, d := range fromCode {
		s := fromSpec[i]
		if s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better || s.Bound != d.Bound {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", section, i, s, d)
		}
		if !metricName.MatchString(d.Name) {
			t.Errorf("%s: name %q does not match %v", section, d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("%s: name %q used twice", section, d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: %s has direction %q", section, d.Name, d.Better)
		}
		if bounded && (d.Bound <= 0 || d.Bound > 0.15) {
			t.Errorf("%s: %s has bound %g, want within (0, 0.15]", section, d.Name, d.Bound)
		}
		if !bounded && d.Moves == "" {
			t.Errorf("%s: %s does not say which end-to-end metric it should move", section, d.Name)
		}
	}
}
