package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func randFrame(r *rand.Rand) *Frame {
	ops := []byte{OpMultiplyReq, OpMultiplyResp, OpSolveReq, OpSolveResp}
	f := &Frame{
		Op:         ops[r.Intn(len(ops))],
		Transpose:  r.Intn(2) == 0,
		Matrix:     "m" + string(rune('a'+r.Intn(26))),
		Method:     []string{"", "s2d", "1d", "s2d-mg"}[r.Intn(4)],
		K:          r.Intn(64),
		Tol:        r.Float64(),
		MaxIter:    r.Intn(1000),
		DeadlineMs: r.Intn(10000),
		Solver:     byte(r.Intn(4)),
	}
	if f.Op == OpSolveResp {
		f.Converged = r.Intn(2) == 0
	}
	nrhs := r.Intn(5)
	n := r.Intn(100)
	for i := 0; i < nrhs; i++ {
		v := make([]float64, n)
		for j := range v {
			switch r.Intn(20) {
			case 0:
				v[j] = math.NaN()
			case 1:
				v[j] = math.Inf(1 - 2*r.Intn(2))
			case 2:
				v[j] = 0.0
			case 3:
				v[j] = math.Copysign(0, -1)
			default:
				v[j] = r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
			}
		}
		f.Vectors = append(f.Vectors, v)
	}
	return f
}

func frameEqual(t *testing.T, a, b *Frame) {
	t.Helper()
	if a.Op != b.Op || a.Transpose != b.Transpose || a.Converged != b.Converged ||
		a.Matrix != b.Matrix || a.Method != b.Method || a.K != b.K ||
		a.MaxIter != b.MaxIter || a.DeadlineMs != b.DeadlineMs || a.Solver != b.Solver {
		t.Fatalf("frame meta mismatch:\n got %+v\nwant %+v", b, a)
	}
	if math.Float64bits(a.Tol) != math.Float64bits(b.Tol) {
		t.Fatalf("tol bits differ: %x vs %x", math.Float64bits(a.Tol), math.Float64bits(b.Tol))
	}
	if len(a.Vectors) != len(b.Vectors) {
		t.Fatalf("vectors = %d, want %d", len(b.Vectors), len(a.Vectors))
	}
	for i := range a.Vectors {
		if len(a.Vectors[i]) != len(b.Vectors[i]) {
			t.Fatalf("vector %d length %d, want %d", i, len(b.Vectors[i]), len(a.Vectors[i]))
		}
		for j := range a.Vectors[i] {
			if math.Float64bits(a.Vectors[i][j]) != math.Float64bits(b.Vectors[i][j]) {
				t.Fatalf("vector %d[%d]: %v, want %v (bits differ)", i, j, b.Vectors[i][j], a.Vectors[i][j])
			}
		}
	}
}

// TestRoundTrip pins decode(encode(f)) == f bit for bit across random
// frames, including NaN, ±Inf, and signed-zero payloads.
func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		f := randFrame(r)
		buf, err := Append(nil, f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(buf) != f.Size() {
			t.Fatalf("frame %d: encoded %d bytes, Size says %d", i, len(buf), f.Size())
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		frameEqual(t, f, got)
	}
}

// goldenFrame is the frame whose bytes TestGoldenLayout spells out.
func goldenFrame() *Frame {
	return &Frame{
		Op: OpMultiplyReq, Transpose: true, Matrix: "web", Method: "s2d",
		K: 4, Vectors: [][]float64{{1.0}},
	}
}

// TestGoldenLayout pins the byte layout so the format cannot drift
// silently: any change to the header is a wire-protocol version bump.
func TestGoldenLayout(t *testing.T) {
	buf, err := Append(nil, goldenFrame())
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[0:4]) != "SpMV" {
		t.Fatalf("magic bytes %q, want SpMV", buf[0:4])
	}
	le := binary.LittleEndian
	if buf[4] != 1 || buf[5] != OpMultiplyReq || le.Uint16(buf[6:]) != FlagTranspose {
		t.Fatalf("version/op/flags = %d/%d/%x", buf[4], buf[5], le.Uint16(buf[6:]))
	}
	// Names at 48, padded to 56 (48+3+3 → 56), payload one float64.
	if want := 56 + 8; len(buf) != want || int(le.Uint32(buf[8:])) != want {
		t.Fatalf("frame length %d (field %d), want %d", len(buf), le.Uint32(buf[8:]), want)
	}
	if le.Uint32(buf[12:]) != 4 || le.Uint32(buf[16:]) != 1 || le.Uint32(buf[20:]) != 1 {
		t.Fatalf("k/nrhs/n = %d/%d/%d", le.Uint32(buf[12:]), le.Uint32(buf[16:]), le.Uint32(buf[20:]))
	}
	if string(buf[48:51]) != "web" || string(buf[51:54]) != "s2d" {
		t.Fatalf("names = %q %q", buf[48:51], buf[51:54])
	}
	if got := math.Float64frombits(le.Uint64(buf[56:])); got != 1.0 {
		t.Fatalf("payload = %v, want 1.0", got)
	}
}

// TestDecodeTruncated feeds every proper prefix of a valid frame to
// Decode: all must fail with *FormatError, none may panic.
func TestDecodeTruncated(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := randFrame(r)
	f.Vectors = [][]float64{make([]float64, 7), make([]float64, 7)}
	buf, err := Append(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(buf); n++ {
		if _, err := Decode(buf[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(buf))
		} else if _, ok := err.(*FormatError); !ok {
			t.Fatalf("truncation to %d: error %T, want *FormatError", n, err)
		}
	}
}

// TestDecodeCorrupt flips every byte of a valid frame in turn; Decode
// must either reject with *FormatError or decode without panicking —
// corruption may be payload-only, which the format cannot detect, but
// it must never crash the server.
func TestDecodeCorrupt(t *testing.T) {
	f := &Frame{Op: OpMultiplyReq, Matrix: "m", Method: "s2d", K: 2,
		Vectors: [][]float64{{1, 2, 3}, {4, 5, 6}}}
	buf, err := Append(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		for _, flip := range []byte{0xff, 0x01, 0x80} {
			mut := append([]byte(nil), buf...)
			mut[i] ^= flip
			g, err := Decode(mut)
			if err != nil {
				if _, ok := err.(*FormatError); !ok {
					t.Fatalf("byte %d ^ %#x: error %T, want *FormatError", i, flip, err)
				}
				continue
			}
			// Decoded despite the flip: must still be structurally sane.
			for _, v := range g.Vectors {
				_ = v
			}
		}
	}
}

// TestDecodeRejects pins the individual validation paths with
// hand-corrupted headers.
func TestDecodeRejects(t *testing.T) {
	valid := func() []byte {
		buf, err := Append(nil, &Frame{Op: OpMultiplyReq, Matrix: "m", Vectors: [][]float64{{1, 2}}})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	le := binary.LittleEndian
	cases := []struct {
		name string
		mut  func(b []byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }},
		{"bad op", func(b []byte) []byte { b[5] = 77; return b }},
		{"unknown flags", func(b []byte) []byte { le.PutUint16(b[6:], 0x8000); return b }},
		{"length mismatch", func(b []byte) []byte { le.PutUint32(b[8:], uint32(len(b)+8)); return b }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) }},
		{"nrhs over bound", func(b []byte) []byte { le.PutUint32(b[16:], MaxVectors+1); return b }},
		{"name over bound", func(b []byte) []byte { le.PutUint16(b[24:], MaxNameLen+1); return b }},
		{"reserved nonzero", func(b []byte) []byte { b[30] = 1; return b }},
		{"bad solver", func(b []byte) []byte { b[28] = 9; return b }},
		{"payload mismatch", func(b []byte) []byte { le.PutUint32(b[20:], 3); return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.mut(valid())); err == nil {
				t.Fatal("corrupt frame decoded successfully")
			} else if _, ok := err.(*FormatError); !ok {
				t.Fatalf("error %T, want *FormatError", err)
			}
		})
	}
}

// TestZeroCopyAliasing documents the zero-copy contract: on a
// little-endian host with an aligned buffer, decoded vectors alias the
// frame bytes.
func TestZeroCopyAliasing(t *testing.T) {
	if !nativeLittle {
		t.Skip("big-endian host: decode copies by design")
	}
	f := &Frame{Op: OpMultiplyReq, Matrix: "mm", Vectors: [][]float64{{1, 2, 3, 4}}}
	buf, err := Append(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the buffer; an aliasing view sees the change.
	p := payloadOffset(len(f.Matrix), len(f.Method))
	binary.LittleEndian.PutUint64(buf[p:], math.Float64bits(42))
	if g.Vectors[0][0] != 42 {
		t.Skip("buffer not 8-aligned on this run: copying fallback used (still correct)")
	}
}

// FuzzDecode is the go-native fuzz harness: arbitrary bytes must never
// panic Decode, and frames that do decode must re-encode to the same
// bytes modulo payload aliasing.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			return
		}
		buf, err := Append(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame fails to re-encode: %v", err)
		}
		if len(buf) != len(data) {
			t.Fatalf("re-encode: %d bytes, original %d", len(buf), len(data))
		}
		for i := range buf {
			if buf[i] != data[i] {
				t.Fatalf("re-encode differs at byte %d: %#x vs %#x", i, buf[i], data[i])
			}
		}
		var streamed bytes.Buffer
		if _, err := WriteTo(&streamed, fr); err != nil || !bytes.Equal(streamed.Bytes(), data) {
			t.Fatalf("WriteTo differs from the original frame (err %v)", err)
		}
	})
}

// fuzzSeeds is FuzzDecode's seed corpus: eight random valid frames and
// two stubs that must not decode.
func fuzzSeeds(tb testing.TB) [][]byte {
	r := rand.New(rand.NewSource(3))
	var seeds [][]byte
	for i := 0; i < 8; i++ {
		buf, err := Append(nil, randFrame(r))
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf)
	}
	return append(seeds, []byte{}, []byte("SpMV"))
}

// failAfter accepts limit bytes, then fails: the write that crosses the
// limit is short and returns errSink.
type failAfter struct {
	buf   bytes.Buffer
	limit int
}

var errSink = errors.New("sink full")

func (w *failAfter) Write(p []byte) (int, error) {
	if room := w.limit - w.buf.Len(); len(p) > room {
		w.buf.Write(p[:room])
		return room, errSink
	}
	return w.buf.Write(p)
}

// TestWriteToMatchesAppend pins the streaming encoder to the slice
// encoder: for the golden frame, every decodable seed of FuzzDecode's
// corpus, and the edge shapes (no vectors, empty vectors, nrhs at
// MaxVectors), WriteTo emits byte for byte what Append returns, on the
// in-place path and on the byte-swapping one, and the bytes decode back
// to the frame. A writer that fails part-way gets a prefix of those
// bytes and its error back with the exact count.
func TestWriteToMatchesAppend(t *testing.T) {
	wide := &Frame{Op: OpMultiplyResp, Matrix: "wide", Method: "1d", K: 2}
	for i := 0; i < MaxVectors; i++ {
		wide.Vectors = append(wide.Vectors, []float64{float64(i), -0.5, math.Inf(1)})
	}
	frames := map[string]*Frame{
		"golden":        goldenFrame(),
		"no-vectors":    {Op: OpSolveReq, Matrix: "m", Solver: SolverCG, Tol: 1e-9, MaxIter: 7},
		"empty-vectors": {Op: OpMultiplyResp, Matrix: "abcde", Method: "s2d-b", Vectors: [][]float64{{}, {}}},
		"max-vectors":   wide,
		"aligned-names": {Op: OpSolveResp, Converged: true, Matrix: "four", Method: "four", Vectors: [][]float64{{1, 2, 3}}},
	}
	for i, seed := range fuzzSeeds(t) {
		if f, err := Decode(seed); err == nil {
			frames["fuzz-seed-"+string(rune('0'+i))] = f
		}
	}
	if len(frames) != 5+8 {
		t.Fatalf("%d frames, want the 5 named ones and 8 decodable fuzz seeds", len(frames))
	}

	defer func(v bool) { nativeLittle = v }(nativeLittle)
	first := map[string][]byte{} // Append's bytes on the first pass: both paths must produce them
	for _, little := range []bool{nativeLittle, false} {
		nativeLittle = little
		for name, f := range frames {
			want, err := Append(nil, f)
			if err != nil {
				t.Fatalf("%s: Append: %v", name, err)
			}
			if first[name] == nil {
				first[name] = want
			} else if !bytes.Equal(first[name], want) {
				t.Fatalf("%s: Append's in-place and byte-swapping paths disagree", name)
			}
			var got bytes.Buffer
			n, err := WriteTo(&got, f)
			if err != nil || n != int64(len(want)) || n != int64(f.Size()) {
				t.Fatalf("%s (little=%v): WriteTo = %d, %v; want %d bytes (Size %d)", name, little, n, err, len(want), f.Size())
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s (little=%v): WriteTo and Append disagree", name, little)
			}
			back, err := Decode(got.Bytes())
			if err != nil {
				t.Fatalf("%s: decode of WriteTo output: %v", name, err)
			}
			frameEqual(t, f, back)

			// Fail at every boundary class: nothing accepted, inside the
			// header, inside the names/padding, first payload byte, inside
			// the payload, and one byte short of the end.
			p := payloadOffset(len(f.Matrix), len(f.Method))
			for _, limit := range []int{0, 1, headerSize, p - 1, p, p + 5, len(want) - 1} {
				if limit >= len(want) {
					continue
				}
				w := &failAfter{limit: limit}
				n, err := WriteTo(w, f)
				if !errors.Is(err, errSink) || n != int64(limit) {
					t.Fatalf("%s (little=%v): failing writer at %d: WriteTo = %d, %v", name, little, limit, n, err)
				}
				if !bytes.Equal(w.buf.Bytes(), want[:limit]) {
					t.Fatalf("%s (little=%v): bytes before the failure at %d are not a prefix", name, little, limit)
				}
			}
		}
	}

	// A frame Append refuses, WriteTo refuses before writing anything.
	ragged := &Frame{Op: OpMultiplyResp, Matrix: "m", Vectors: [][]float64{{1, 2}, {3}}}
	var sink bytes.Buffer
	var bad *FormatError
	if n, err := WriteTo(&sink, ragged); !errors.As(err, &bad) || n != 0 || sink.Len() != 0 {
		t.Fatalf("ragged frame: WriteTo = %d, %v with %d bytes out; want *FormatError and nothing written", n, err, sink.Len())
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, nrhs := range []int{1, 8} {
		f := &Frame{Op: OpMultiplyReq, Matrix: "bench", Method: "s2d", K: 4}
		r := rand.New(rand.NewSource(5))
		for i := 0; i < nrhs; i++ {
			v := make([]float64, 4096)
			for j := range v {
				v[j] = r.NormFloat64()
			}
			f.Vectors = append(f.Vectors, v)
		}
		buf, err := Append(nil, f)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(map[int]string{1: "nrhs=1", 8: "nrhs=8"}[nrhs], func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
