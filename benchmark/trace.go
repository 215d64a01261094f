package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer, timed from the
// benchmark's side of the boundary. Spans of one operation (one request,
// one solve) share Op; Parent is the span that caused this one (0 = none).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Calls    int    `json:"calls"`    // calls the span covers: 1, or a batch of very short calls
	StartNs  int64  `json:"start_ns"` // since the tracer was created
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced pass: every method still times the call but records nothing,
// so both passes run the same measurement code.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// nextOp returns a fresh operation id.
func (t *tracer) nextOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id (0 when untraced). Use it for
// spans that enclose other spans; leaf calls go through timed.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Op: op, Calls: 1, StartNs: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// timed runs f, returns its wall time, and — when tracing — records it
// as a leaf span under parent.
func (t *tracer) timed(name string, parent, op int, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	t.leaf(name, parent, op, 1, start, d)
	return d
}

func (t *tracer) leaf(name string, parent, op, calls int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: t.workload, Op: op, Calls: calls, StartNs: s, EndNs: s + d.Nanoseconds()})
	t.mu.Unlock()
}

// sampleFor repeats f until slice has elapsed, at least minSamples
// times, and returns the wall time per call of each sample in
// microseconds. Calls too short for the clock to resolve are sampled in
// batches: while a sample takes less than batchTarget the batch doubles,
// each batch is one sample (and one span, carrying its call count), and
// its per-call time is the batch time over the batch size.
func (t *tracer) sampleFor(name string, parent int, slice time.Duration, f func()) []float64 {
	const (
		minSamples  = 5
		batchTarget = 20 * time.Microsecond
		maxBatch    = 1024
	)
	var us []float64
	batch := 1
	deadline := time.Now().Add(slice)
	for len(us) < minSamples || time.Now().Before(deadline) {
		start := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		d := time.Since(start)
		t.leaf(name, parent, 0, batch, start, d)
		us = append(us, float64(d.Nanoseconds())/1e3/float64(batch))
		if d < batchTarget && batch < maxBatch {
			batch *= 2
		}
	}
	return us
}

// layerTime is one span name's aggregate: how often it ran, its total
// time, and its self time (total minus the part its children cover).
type layerTime struct {
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
}

// selfTimes derives, per span name, total time and self time. A span's
// self time is its duration minus the union of its children's intervals
// (children of a closed-loop phase run concurrently, so their intervals
// are merged, not summed).
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		var covered, hi int64
		hi = s.StartNs
		for _, c := range kids {
			lo, end := max(c.StartNs, hi), min(c.EndNs, s.EndNs)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		lt := out[s.Name]
		lt.Count += s.Calls
		lt.TotalUs += float64(s.EndNs-s.StartNs) / 1e3
		lt.SelfUs += float64(s.EndNs-s.StartNs-covered) / 1e3
		out[s.Name] = lt
	}
	return out
}

// writeFile dumps every span and the derived self times as one JSON
// document. It is called once, when the traced pass has finished.
func (t *tracer) writeFile(path string, seed int64) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	t.mu.Lock()
	doc := struct {
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Spans    []span               `json:"spans"`
		Layers   map[string]layerTime `json:"layers"`
	}{Workload: t.workload, Seed: seed, Spans: append([]span(nil), t.spans...)}
	t.mu.Unlock()
	doc.Layers = t.selfTimes()
	buf, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
