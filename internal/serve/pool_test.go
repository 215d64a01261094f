package serve

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func newTestPool(t *testing.T, opt Options) *Pool {
	t.Helper()
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	p := NewPool(opt)
	t.Cleanup(p.Close)
	a := testMatrix(t, 14, 14)
	if err := p.AddMatrix("lap", a); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolAcquireSharesEngine(t *testing.T) {
	p := newTestPool(t, Options{})
	h1, err := p.Acquire("lap", "s2d", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Release()
	h2, err := p.Acquire("lap", "S2D", 4) // case-insensitive: same engine
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if h1.e != h2.e {
		t.Fatal("same (matrix, method, K) produced two engines")
	}
	if pm := p.MetricsSnapshot(); pm.Builds != 1 || len(pm.Engines) != 1 {
		t.Fatalf("builds=%d engines=%d, want 1/1", pm.Builds, len(pm.Engines))
	}
	if h1.e.refs != 2 {
		t.Fatalf("refs = %d, want 2", h1.e.refs)
	}
}

func TestPoolConcurrentAcquireBuildsOnce(t *testing.T) {
	p := newTestPool(t, Options{})
	const n = 16
	handles := make([]*Handle, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			handles[i], errs[i] = p.Acquire("lap", "s2d", 4)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if handles[i].e != handles[0].e {
			t.Fatal("concurrent acquires produced distinct engines")
		}
		handles[i].Release()
	}
	if pm := p.MetricsSnapshot(); pm.Builds != 1 {
		t.Fatalf("builds = %d, want 1", pm.Builds)
	}
}

func TestPoolLRUEviction(t *testing.T) {
	p := newTestPool(t, Options{MaxEngines: 2})
	use := func(methodName string, k int) {
		h, err := p.Acquire("lap", methodName, k)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(3))
		if _, err := h.Multiply(context.Background(), randVec(r, h.Cols())); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	use("s2d", 2) // oldest → evicted when the third engine arrives
	use("s2d", 4)
	use("1d", 4)

	pm := p.MetricsSnapshot()
	if len(pm.Engines) != 2 {
		t.Fatalf("resident engines = %d, want 2 (cap)", len(pm.Engines))
	}
	if pm.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", pm.Evictions)
	}
	for _, e := range pm.Engines {
		if e.Method == "s2D" && e.K == 2 {
			t.Fatal("LRU engine survived eviction")
		}
	}
	// Re-acquiring the evicted key rebuilds.
	use("s2d", 2)
	if pm := p.MetricsSnapshot(); pm.Builds != 4 {
		t.Fatalf("builds = %d, want 4 (rebuild after eviction)", pm.Builds)
	}
}

func TestPoolInUseEnginesNeverEvict(t *testing.T) {
	p := newTestPool(t, Options{MaxEngines: 1})
	h1, err := p.Acquire("lap", "s2d", 2)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := p.Acquire("lap", "s2d", 4) // over cap, but h1 is pinned
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	// Both engines must still serve.
	if _, err := h1.Multiply(context.Background(), randVec(r, h1.Cols())); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Multiply(context.Background(), randVec(r, h2.Cols())); err != nil {
		t.Fatal(err)
	}
	if pm := p.MetricsSnapshot(); len(pm.Engines) != 2 || pm.Evictions != 0 {
		t.Fatalf("engines=%d evictions=%d, want 2/0 while pinned", len(pm.Engines), pm.Evictions)
	}
	h1.Release()
	h2.Release()
	// Releasing brings the pool back under its cap.
	if pm := p.MetricsSnapshot(); len(pm.Engines) != 1 {
		t.Fatalf("engines = %d after release, want 1", len(pm.Engines))
	}
}

func TestPoolTypedErrors(t *testing.T) {
	p := newTestPool(t, Options{})
	_, err := p.Acquire("nope", "s2d", 4)
	var um *UnknownMatrixError
	if !errors.As(err, &um) || um.Matrix != "nope" {
		t.Fatalf("err = %v, want *UnknownMatrixError", err)
	}
	_, err = p.Acquire("lap", "not-a-method", 4)
	var ue *UnknownMethodError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *UnknownMethodError", err)
	}
	if _, err = p.Acquire("lap", "s2d", 0); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestPoolClose(t *testing.T) {
	p := newTestPool(t, Options{})
	h, err := p.Acquire("lap", "s2d", 4)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	p.Close()
	p.Close() // idempotent
	if _, err := p.Acquire("lap", "s2d", 4); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := p.AddMatrix("x", testMatrix(t, 4, 4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddMatrix err = %v, want ErrClosed", err)
	}
}

func TestPoolHandleReleaseIdempotent(t *testing.T) {
	p := newTestPool(t, Options{})
	h, err := p.Acquire("lap", "s2d", 4)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	h.Release() // second release must not double-decrement
	h2, err := p.Acquire("lap", "s2d", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if h2.e.refs != 1 {
		t.Fatalf("refs = %d, want 1", h2.e.refs)
	}
}

func TestPoolDuplicateMatrix(t *testing.T) {
	p := newTestPool(t, Options{})
	if err := p.AddMatrix("lap", testMatrix(t, 6, 6)); err == nil {
		t.Fatal("duplicate matrix name accepted")
	}
}

// A matrix too small to time keeps the reference kernels in the
// single-vector classes on every build, however the probes fall; the
// block classes are still tuned, and ForceKernel still pins them all.
func TestPoolSmallMatrixKeepsReferenceSingleVectorKernels(t *testing.T) {
	if got := tunedWidths(minTimedNNZ - 1); len(got) != 3 || got[0] != 2 || got[1] != 4 || got[2] != 8 {
		t.Fatalf("tunedWidths below the floor = %v, want [2 4 8]", got)
	}
	if got := tunedWidths(minTimedNNZ); got != nil {
		t.Fatalf("tunedWidths at the floor = %v, want nil (every class)", got)
	}
	for i := 0; i < 8; i++ { // a fresh pool each time: nothing memoized
		p := newTestPool(t, Options{})
		h, err := p.Acquire("lap", "s2d", 4)
		if err != nil {
			t.Fatal(err)
		}
		if k := h.Kernel(); !strings.HasPrefix(k, "0:scalar 1:scalar 2:") {
			t.Fatalf("build %d: kernels %q, want the single-vector classes on scalar", i, k)
		}
		h.Release()
	}
	p := newTestPool(t, Options{ForceKernel: "sorted"})
	h, err := p.Acquire("lap", "s2d", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if k := h.Kernel(); k != "0:sorted 1:sorted 2:sorted 4:sorted 8:sorted" {
		t.Fatalf("forced kernels %q", k)
	}
}
