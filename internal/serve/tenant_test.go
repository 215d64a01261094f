package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestTenantRegistryValidation(t *testing.T) {
	cases := []struct {
		name  string
		specs []TenantSpec
	}{
		{"empty name", []TenantSpec{{Name: "  ", Key: "k1"}}},
		{"missing key", []TenantSpec{{Name: "a"}}},
		{"duplicate name", []TenantSpec{{Name: "a", Key: "k1"}, {Name: "a", Key: "k2"}}},
		{"reserved default", []TenantSpec{{Name: "default", Key: "k1"}}},
		{"duplicate key", []TenantSpec{{Name: "a", Key: "k1"}, {Name: "b", Key: "k1"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewTenantRegistry(tc.specs...); err == nil {
				t.Fatal("invalid registry accepted")
			}
		})
	}
	r, err := NewTenantRegistry(TenantSpec{Name: "a", Key: "k1", Weight: -3})
	if err != nil {
		t.Fatal(err)
	}
	if tn, _ := r.Lookup("a"); tn.Weight != 1 {
		t.Fatalf("non-positive weight normalized to %v, want 1", tn.Weight)
	}
}

func TestTenantAuthenticate(t *testing.T) {
	open, err := NewTenantRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if tn, err := open.Authenticate(""); err != nil || tn != open.Default() {
		t.Fatalf("open registry: %v %v", tn, err)
	}
	keyed, err := NewTenantRegistry(TenantSpec{Name: "a", Key: "secret"})
	if err != nil {
		t.Fatal(err)
	}
	var ua *UnauthorizedError
	for _, hdr := range []string{"", "Basic secret", "Bearer wrong"} {
		if _, err := keyed.Authenticate(hdr); !errors.As(err, &ua) {
			t.Fatalf("header %q: error %v, want *UnauthorizedError", hdr, err)
		}
	}
	tn, err := keyed.Authenticate("Bearer secret")
	if err != nil || tn.Name != "a" {
		t.Fatalf("valid key: %v %v", tn, err)
	}
}

func TestLoadTenants(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	body := `{"tenants":[{"name":"hot","key":"kh","weight":1,"max_queue":4},
	                     {"name":"light","key":"kl","weight":4}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := LoadTenants(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Keyed() {
		t.Fatal("loaded registry is not keyed")
	}
	hot, _ := r.Lookup("hot")
	light, _ := r.Lookup("light")
	if hot.MaxQueue != 4 || light.Weight != 4 {
		t.Fatalf("specs not honored: hot=%+v light=%+v", hot, light)
	}
	if _, err := LoadTenants(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"tenants":[]}`), 0o644)
	if _, err := LoadTenants(empty); err == nil {
		t.Fatal("empty tenant list accepted")
	}
}

// TestStrideBatchAssembly pins the weighted-fair assembler
// deterministically: with tenant a at weight 2 and b at weight 1 both
// backlogged, one MaxBatch=8 flush serves them 5:3 in the exact stride
// order a b a a b a a b.
func TestStrideBatchAssembly(t *testing.T) {
	reg, err := NewTenantRegistry(
		TenantSpec{Name: "a", Key: "ka", Weight: 2},
		TenantSpec{Name: "b", Key: "kb", Weight: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	a := testMatrix(t, 12, 12)
	s := newTestScheduler(t, a, Options{MaxBatch: 8, MaxWait: time.Hour, Tenants: reg})

	ta, _ := reg.Lookup("a")
	tb, _ := reg.Lookup("b")
	s.mu.Lock()
	for _, tn := range []*Tenant{ta, tb} {
		q := s.queueForLocked(tn)
		for i := 0; i < 8; i++ {
			q.reqs = append(q.reqs, &request{tn: tn, done: make(chan struct{}), enq: time.Now()})
			s.nq++
		}
	}
	batch := s.takeBatchLocked()
	want := []*Tenant{ta, tb, ta, ta, tb, ta, ta, tb}
	if len(batch) != len(want) {
		t.Fatalf("batch width %d, want %d", len(batch), len(want))
	}
	for i, r := range batch {
		if r.tn != want[i] {
			t.Fatalf("slot %d served %s, want %s", i, r.tn.Name, want[i].Name)
		}
	}
	// Unstuff the synthetic occupants so close() drains cleanly.
	s.tq = make(map[*Tenant]*tenantQueue)
	s.nq = 0
	s.mu.Unlock()
}

// TestTenantQuotaIsolation is the QoS contract at scheduler level: a hot
// tenant at its quota sheds with a per-tenant *OverloadError naming
// itself, while the light tenant keeps being admitted and served.
func TestTenantQuotaIsolation(t *testing.T) {
	reg, err := NewTenantRegistry(
		TenantSpec{Name: "hot", Key: "kh", MaxQueue: 2},
		TenantSpec{Name: "light", Key: "kl"},
	)
	if err != nil {
		t.Fatal(err)
	}
	a := testMatrix(t, 10, 10)
	s := newTestScheduler(t, a, Options{MaxBatch: 64, MaxWait: time.Hour, MaxQueue: 16, Tenants: reg})
	hot, _ := reg.Lookup("hot")
	light, _ := reg.Lookup("light")

	// Fill hot's quota with live submissions parked in the wait window.
	var wg sync.WaitGroup
	x := make([]float64, a.Cols)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.submitOne(context.Background(), hot, x, false)
		}()
	}
	waitDepth(t, s, 2)

	var ov *OverloadError
	if _, err := s.submitOne(context.Background(), hot, x, false); !errors.As(err, &ov) {
		t.Fatalf("hot over quota: %v, want *OverloadError", err)
	}
	if ov.Tenant != "hot" || ov.Limit != 2 {
		t.Fatalf("overload names %q limit %d, want hot/2", ov.Tenant, ov.Limit)
	}
	if hot.rejections.Load() == 0 {
		t.Fatal("hot rejection not counted")
	}

	// The light tenant admits and completes despite hot's full queue: its
	// submission joins the aging batch, and a full-width wake is not
	// needed because its own arrival re-arms admission + the window.
	done := make(chan error, 1)
	go func() {
		_, err := s.submitOne(context.Background(), light, x, false)
		done <- err
	}()
	waitDepth(t, s, 3)
	// Nothing flushed yet (MaxWait is an hour): force one by closing.
	s.close()
	if err := <-done; err != nil {
		t.Fatalf("light tenant: %v", err)
	}
	wg.Wait()
	if light.requests.Load() != 1 {
		t.Fatalf("light served %d, want 1", light.requests.Load())
	}
}

// TestSubmitBatchAtomicAdmission: a multi-RHS submission over the quota
// rejects as a unit — no partial enqueue.
func TestSubmitBatchAtomicAdmission(t *testing.T) {
	a := testMatrix(t, 10, 10)
	s := newTestScheduler(t, a, Options{MaxBatch: 64, MaxWait: time.Millisecond, MaxQueue: 4})
	xs := make([][]float64, 5)
	for i := range xs {
		xs[i] = make([]float64, a.Cols)
	}
	var ov *OverloadError
	if _, err := s.submitBatch(context.Background(), nil, xs, nil, false); !errors.As(err, &ov) {
		t.Fatalf("oversized batch: %v, want *OverloadError", err)
	}
	if got := s.metrics().QueueDepth; got != 0 {
		t.Fatalf("queue depth %d after atomic rejection, want 0", got)
	}
	// At the quota exactly, the batch admits and serves.
	ys, err := s.submitBatch(context.Background(), nil, xs[:4], nil, false)
	if err != nil || len(ys) != 4 {
		t.Fatalf("full-quota batch: %d results, err %v", len(ys), err)
	}
}
