package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// splitRequest has the serving layer's multiply request's shape: two
// vector members among scalars.
type splitRequest struct {
	Matrix    string      `json:"matrix"`
	K         int         `json:"k"`
	X         []float64   `json:"x,omitempty"`
	Xs        [][]float64 `json:"xs,omitempty"`
	Transpose bool        `json:"transpose,omitempty"`
}

func sameVector(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkSplit holds SplitJSON to its contract on body — whatever it
// accepts, json.Unmarshal accepts with the same result, bit for bit —
// and reports whether it accepted.
func checkSplit(t testing.TB, body []byte) bool {
	t.Helper()
	var want, got splitRequest
	wantErr := json.Unmarshal(body, &want)
	rest, x, xs, ok := SplitJSON(body, "x", "xs")
	if !ok {
		return false
	}
	if err := json.Unmarshal(rest, &got); err != nil {
		if wantErr == nil {
			t.Fatalf("remainder %.80q refused (%v), but the body is valid", rest, err)
		}
		return true
	}
	if wantErr != nil {
		t.Fatalf("accepted a body encoding/json refuses: %v", wantErr)
	}
	if got.X != nil || got.Xs != nil {
		t.Fatalf("a vector member stayed in the remainder %.80q", rest)
	}
	if got.Matrix != want.Matrix || got.K != want.K || got.Transpose != want.Transpose {
		t.Fatalf("scalars: got %+v, want %+v", got, want)
	}
	if !sameVector(x, want.X) {
		t.Fatalf("x: got %d values (nil %v), want %d (nil %v), or bits differ", len(x), x == nil, len(want.X), want.X == nil)
	}
	if (xs == nil) != (want.Xs == nil) || len(xs) != len(want.Xs) {
		t.Fatalf("xs: got %d vectors (nil %v), want %d (nil %v)", len(xs), xs == nil, len(want.Xs), want.Xs == nil)
	}
	for i := range xs {
		if !sameVector(xs[i], want.Xs[i]) {
			t.Fatalf("xs[%d] differs", i)
		}
	}
	return true
}

func TestSplitJSON(t *testing.T) {
	for _, tc := range []struct {
		body   string
		accept bool // the walk must take it (a decline is always allowed to be correct)
	}{
		{`{"matrix":"m","method":"s2d","k":2,"x":[1,2.5,-3e2]}`, true},
		{`{"x":[0.1,-0,1e-7,1E+21,5e-324,2.2250738585072014e-308],"matrix":"m"}`, true},
		{" {\n\t\"k\" : 4 ,\r\n \"xs\" : [ [ 1 , 2 ] , [ ] , [ 3 ] ] , \"matrix\" : \"a,b]}\\\"\" } \n", true},
		{`{"xs":[],"x":[]}`, true},
		{`{}`, true},
		{`{"matrix":"m","extra":{"x":[1,"a",{"y":[]}],"s":"]}"},"x":[7],"list":[[1],[2,[3]]]}`, true},
		{`{"matrix":5,"x":[1]}`, true}, // a scalar's type error is the remainder's
		{`{"x":[1],"matrix":}`, true},  // and so is its syntax error
		{`{"x":[1,null]}`, false},
		{`{"x":null}`, false},
		{`{"x":[1],"x":[2]}`, false},
		{`{"x":[1],"X":[2]}`, false},
		{`{"X":[1]}`, false},
		{`{"\u0078":[1]}`, false},
		{`{"xſ":[[1]]}`, false}, // encoding/json folds ſ to s
		{`{"x":[1e999]}`, false},
		{`{"x":[01]}`, false},
		{`{"x":[1.]}`, false},
		{`{"x":[.5]}`, false},
		{`{"x":[+1]}`, false},
		{`{"x":[-]}`, false},
		{`{"x":[1e]}`, false},
		{`{"x":[NaN]}`, false},
		{`{"x":[0x1p-2]}`, false},
		{`{"x":[1_0]}`, false},
		{`{"x":[1,]}`, false},
		{`{"x":[,1]}`, false},
		{`{"x":[1 2]}`, false},
		{`{"x":[[1]]}`, false},
		{`{"xs":[1]}`, false},
		{`{"xs":[[1],null]}`, false},
		{`{"xs":[[1],]}`, false},
		{`{"x":[1,2`, false},
		{`{"x":[1,2]`, false},
		{`{"x":[1,2]} x`, false},
		{`{"x":[1,2]}{}`, false},
		{`{"x" [1]}`, false},
		{`{"a":1 "x":[1]}`, false},
		{`{"a":"unterminated`, false},
		{`{"a":[1,2`, false},
		{`[1,2]`, false},
		{`null`, false},
		{``, false},
	} {
		if got := checkSplit(t, []byte(tc.body)); got != tc.accept {
			t.Errorf("%s: accepted %v, want %v", tc.body, got, tc.accept)
		}
	}
}

// withProcs runs f at GOMAXPROCS n, so that arrays above the grain are
// split whatever the host has.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestSplitJSONSegmentBoundaries walks array texts of exactly the
// lengths at which the segment count changes, with the comma nearest
// each cut at every offset from it, and arrays of 0, 1 and 2 elements
// padded to those lengths.
func TestSplitJSONSegmentBoundaries(t *testing.T) {
	const number = "0.12345678901234567," // 20 bytes
	wrap := func(text string) []byte {
		return []byte(`{"matrix":"m","x":[` + text + `],"k":2}`)
	}
	withProcs(4, func() {
		for _, grains := range []int{1, 2, 3} {
			for _, delta := range []int{-1, 0, 1} {
				size := grains*splitGrain + delta
				for shift := 0; shift < len(number)+2; shift++ {
					many := strings.Repeat(number, (size-shift)/len(number)-1) + "-1e-7"
					text := strings.Repeat(" ", shift) + many + strings.Repeat(" ", size-shift-len(many))
					if len(text) != size {
						t.Fatalf("built %d bytes, want %d", len(text), size)
					}
					if !checkSplit(t, wrap(text)) {
						t.Fatalf("%d grains%+d, shift %d: declined", grains, delta, shift)
					}
				}
				pad := strings.Repeat(" ", size)
				if !checkSplit(t, wrap(pad)) && grains < 2 {
					t.Fatalf("%d grains%+d: empty array declined", grains, delta)
				}
				if !checkSplit(t, wrap(pad[:size/3]+"1"+pad[size/3+1:])) {
					t.Fatalf("%d grains%+d: one element declined", grains, delta)
				}
				for _, at := range []int{1, size / 2, size - 2} {
					if !checkSplit(t, wrap("1"+pad[:at-1]+","+pad[at+1:size-1]+"2")) {
						t.Fatalf("%d grains%+d: two elements, comma at %d: declined", grains, delta, at)
					}
				}
				// A slip in a later segment declines the whole array.
				bad := strings.Repeat(number, size/len(number)) + "1"
				if checkSplit(t, wrap(bad[:size-30]+"x"+bad[size-29:])) {
					t.Fatalf("%d grains%+d: accepted a slip in the last segment", grains, delta)
				}
			}
		}
	})
}

// jsonEdgeValues are the format rule's corners: both sides of the 1e-6
// and 1e21 switches, exponents of one, two and three digits, zeros,
// the subnormal and normal extremes.
var jsonEdgeValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 100, 1e6, 123456789, 1e20, 999999999999999868928, 1e21, 1e22, -1e21,
	1e-6, 0.000001234, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e-100, 1e100, 1.2345678901234567e-6, -1.2345678901234567e-6,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072014e-308, -2.2250738585072014e-308, 4.9406564584124654e-324, math.MaxInt64, math.Pi, -math.E,
}

// goldenVector is the edge values, n uniform values of either sign and
// n finite values drawn uniformly from the bit patterns.
func goldenVector(n int) []float64 {
	r := rand.New(rand.NewSource(15))
	v := append([]float64(nil), jsonEdgeValues...)
	for i := 0; i < n; i++ {
		v = append(v, r.Float64()*2-1)
	}
	for len(v) < len(jsonEdgeValues)+2*n {
		if f := math.Float64frombits(r.Uint64()); f-f == 0 {
			v = append(v, f)
		}
	}
	return v
}

// bodyBytes renders b as the handler sends it.
func bodyBytes(t *testing.T, b *JSONBody) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := b.WriteTo(&buf)
	if err != nil || int(n) != b.Len() || buf.Len() != b.Len() {
		t.Fatalf("WriteTo wrote %d (%v), Len says %d, buffer holds %d", n, err, b.Len(), buf.Len())
	}
	return buf.Bytes()
}

// TestJSONBodyMatchesMarshal: the reply is json.Marshal's, byte for
// byte, inline and split, for flat and nested vectors, nil and empty
// ones, with and without members after them.
func TestJSONBodyMatchesMarshal(t *testing.T) {
	v := goldenVector(100_000)
	longest := 0
	for _, f := range v {
		longest = max(longest, len(appendOne(nil, f)))
	}
	if longest >= maxFloatText {
		t.Fatalf("a value takes %d bytes with its comma, maxFloatText is %d", longest, maxFloatText)
	}
	type meta struct {
		Method string  `json:"method"`
		Ms     float64 `json:"elapsed_ms"`
	}
	type flat struct {
		Y []float64 `json:"y"`
		meta
	}
	type nested struct {
		Ys [][]float64 `json:"ys"`
		meta
	}
	m := meta{Method: "s2d", Ms: 1.25}
	rest, _ := json.Marshal(m)
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			for _, y := range [][]float64{v, v[:1], v[:len(jsonEdgeValues)], {}, nil} {
				want, _ := json.Marshal(flat{y, m})
				b := NewJSONBody()
				if err := b.Vector("y", y); err != nil {
					t.Fatal(err)
				}
				b.Finish(rest)
				if got := bodyBytes(t, b); !bytes.Equal(got, append(want, '\n')) {
					t.Fatalf("procs %d, %d values: differs from json.Marshal at byte %d", procs, len(y), firstDiff(got, want))
				}
				b.Release()
			}
			for _, ys := range [][][]float64{{v, v[:3], {}, nil, v}, {}, {{1}}} {
				want, _ := json.Marshal(nested{ys, m})
				b := NewJSONBody()
				if err := b.Vectors("ys", ys); err != nil {
					t.Fatal(err)
				}
				b.Finish(rest)
				if got := bodyBytes(t, b); !bytes.Equal(got, append(want, '\n')) {
					t.Fatalf("procs %d, %d vectors: differs from json.Marshal at byte %d", procs, len(ys), firstDiff(got, want))
				}
				b.Release()
			}
		})
	}
	// No vector members: the marshalled object alone.
	b := NewJSONBody()
	b.Finish(rest)
	if got := bodyBytes(t, b); string(got) != string(rest)+"\n" {
		t.Fatalf("members only: %s", got)
	}
	b.Release()
}

// appendOne is one value as putFloats writes it, comma included.
func appendOne(dst []byte, f float64) []byte {
	buf := make([]byte, maxFloatText)
	n, _, _ := putFloats(buf, []float64{f})
	return append(dst, buf[:n]...)
}

func firstDiff(a, b []byte) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestJSONBodyNonFinite: the first NaN or infinity is named by vector
// and index, whichever segment met it.
func TestJSONBodyNonFinite(t *testing.T) {
	n := 4 * splitGrain / typicalFloatText
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			for _, at := range [][]int{{0}, {n - 1}, {n / 2, n/2 + 1}, {n/4 + 3, 3 * n / 4}, {5, n - 5}} {
				v := make([]float64, n)
				for _, i := range at {
					v[i] = math.Inf(-1)
				}
				b := NewJSONBody()
				err := b.Vector("y", v)
				b.Release()
				var nf *NonFiniteError
				if !errors.As(err, &nf) || nf.Key != "y" || nf.Vector != -1 || nf.Index != at[0] || !math.IsInf(nf.Value, -1) {
					t.Fatalf("procs %d, -Inf at %v: got %v", procs, at, err)
				}
				want := fmt.Sprintf("wire: result y[%d] is -Inf: not representable in JSON; use application/x-spmv-frame", at[0])
				if err.Error() != want {
					t.Fatalf("message %q, want %q", err, want)
				}
			}
		})
	}
	b := NewJSONBody()
	err := b.Vectors("ys", [][]float64{{1}, {2, math.NaN()}})
	b.Release()
	if err == nil || err.Error() != "wire: result ys[1][1] is NaN: not representable in JSON; use application/x-spmv-frame" {
		t.Fatalf("nested: got %v", err)
	}
}

// poolsDrop is set in builds where sync.Pool forgets on purpose (-race).
var poolsDrop bool

// TestJSONCodecAllocs: a decode allocates its outputs and the remainder
// and nothing per value; an encode, once the pools are warm, nothing.
func TestJSONCodecAllocs(t *testing.T) {
	v := goldenVector(2_000)
	flat, _ := json.Marshal(splitRequest{Matrix: "m", K: 2, X: v})
	if got := testing.AllocsPerRun(20, func() {
		if _, x, _, ok := SplitJSON(flat, "x", "xs"); !ok || len(x) != len(v) {
			t.Fatal("declined")
		}
	}); got != 2 { // x, the remainder
		t.Errorf("SplitJSON, one vector: %v allocs per run, want 2", got)
	}
	nested, _ := json.Marshal(splitRequest{Matrix: "m", K: 2, Xs: [][]float64{v, v, v, v, v, v, v, v}})
	if got := testing.AllocsPerRun(20, func() {
		if _, _, xs, ok := SplitJSON(nested, "x", "xs"); !ok || len(xs) != 8 {
			t.Fatal("declined")
		}
	}); got != 8+4+1 { // the vectors, xs grown 1 → 2 → 4 → 8, the remainder
		t.Errorf("SplitJSON, eight vectors: %v allocs per run, want 13", got)
	}
	if poolsDrop {
		return
	}
	rest := []byte(`{"method":"s2d","k":2}`)
	if got := testing.AllocsPerRun(20, func() {
		b := NewJSONBody()
		if err := b.Vectors("ys", [][]float64{v, v}); err != nil {
			t.Fatal(err)
		}
		b.Finish(rest)
		if _, err := b.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
		b.Release()
	}); got != 0 {
		t.Errorf("JSONBody: %v allocs per run, want 0", got)
	}
}

// BenchmarkJSONVector is the codec's two directions on the benchmark's
// request shape — one vector of 160 000 values, 3.2 MB of text — beside
// encoding/json's. Run it with -cpu 1,2: a leaf benchmark runs at the
// GOMAXPROCS the testing package sets for it, and the codec splits by that.
func BenchmarkJSONVector(b *testing.B) {
	v := goldenVector(80_000)[len(jsonEdgeValues):]
	body, _ := json.Marshal(splitRequest{Matrix: "m", K: 2, X: v})
	rest := []byte(`{"method":"s2d","k":2}`)
	perValue := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(v)), "ns/value")
	}
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, _, _, ok := SplitJSON(body, "x", "xs"); !ok {
				b.Fatal("declined")
			}
		}
		perValue(b)
	})
	b.Run("decode-std", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req splitRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
		perValue(b)
	})
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			jb := NewJSONBody()
			if err := jb.Vector("y", v); err != nil {
				b.Fatal(err)
			}
			jb.Finish(rest)
			if _, err := jb.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
			jb.Release()
		}
		perValue(b)
	})
	b.Run("encode-std", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := json.Marshal(splitRequest{Matrix: "m", K: 2, X: v})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Discard.Write(append(out, '\n')); err != nil {
				b.Fatal(err)
			}
		}
		perValue(b)
	})
}
