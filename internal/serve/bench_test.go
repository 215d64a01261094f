package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/gen"
	"repro/internal/method"
	"repro/internal/spmv"
	"repro/internal/wire"
)

// BenchmarkSchedulerSubmit measures the serving path end to end —
// submit, coalesce, SpMM, demultiplex — under the parallelism the
// benchmark harness offers (-cpu to vary), on the default Options: no
// linger, so what is timed is the scheduler and not the ≥ 1 ms an idle
// process takes to fire a sub-millisecond timer. Compare against the
// raw engine benchmarks in internal/spmv to see the scheduling overhead.
func BenchmarkSchedulerSubmit(b *testing.B) {
	a := gen.Laplace2D(64, 64, false)
	bd, err := method.BuildByName("s2d", a, 4, method.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := spmv.New(bd)
	if err != nil {
		b.Fatal(err)
	}
	s := newScheduler(eng, a.Rows, a.Cols, Options{}.withDefaults(), EngineKey{}, "", nil, nil)
	defer s.close()

	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.submit(context.Background(), x); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	m := s.metrics()
	b.ReportMetric(m.MeanBatch, "batchwidth")
}

// discardWriter is a ResponseWriter that keeps the status and drops the
// body: the handler's cost with no socket and no copy underneath.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header    { return w.header }
func (w *discardWriter) WriteHeader(status int) { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

// BenchmarkHandlerMultiply is the `go test -bench` twin of the
// benchmark's handler row (serve.handler_{json,bin}_us): one nrhs=1
// multiply through ServeHTTP per iteration, in either encoding, at the
// vector lengths of the benchmark's small and large workloads. Beside
// ns/op it reports what the request's own stage marks say decode and
// encode cost per vector value, which is where the two encodings differ.
func BenchmarkHandlerMultiply(b *testing.B) {
	for _, grid := range [][2]int{{32, 40}, {400, 400}} { // 1 280 and 160 000 rows
		a := gen.Laplace2D(grid[0], grid[1], false)
		p := NewPool(Options{Seed: 1})
		if err := p.AddMatrix("m", a); err != nil {
			b.Fatal(err)
		}
		srv := NewServer(p)
		x := randVec(rand.New(rand.NewSource(1)), a.Cols)
		jsonBody, err := json.Marshal(multiplyRequest{engineRequest: engineRequest{Matrix: "m", Method: "s2d", K: 2}, X: x})
		if err != nil {
			b.Fatal(err)
		}
		frame, err := wire.Append(nil, &wire.Frame{Op: wire.OpMultiplyReq, Matrix: "m", Method: "s2d", K: 2, Vectors: [][]float64{x}})
		if err != nil {
			b.Fatal(err)
		}
		for _, enc := range []struct {
			name, contentType string
			body              []byte
		}{{"json", "application/json", jsonBody}, {"binary", wire.ContentType, frame}} {
			w := &discardWriter{header: make(http.Header)}
			post := func() {
				req := httptest.NewRequest("POST", "/v1/multiply", bytes.NewReader(enc.body))
				req.Header.Set("Content-Type", enc.contentType)
				w.status = 0
				srv.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					b.Fatalf("status %d", w.status)
				}
			}
			post() // the cold acquire builds the engine
			b.Run(fmt.Sprintf("%s/%d", enc.name, a.Rows), func(b *testing.B) {
				b.SetBytes(int64(len(enc.body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					post()
				}
				b.StopTimer()
				recent, _, _ := srv.Traces.Snapshot() // newest first: this run's
				recent = recent[:min(b.N, len(recent))]
				stageMs := map[string]float64{}
				for _, tr := range recent {
					for _, sp := range tr.Spans {
						stageMs[sp.Stage] += sp.Ms
					}
				}
				perValue := 1e6 / float64(len(recent)*len(x))
				b.ReportMetric(stageMs[StageDecode]*perValue, "decode-ns/value")
				b.ReportMetric(stageMs[StageEncode]*perValue, "encode-ns/value")
			})
		}
		p.Close()
	}
}
