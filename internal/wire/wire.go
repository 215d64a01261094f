// Package wire defines the binary frame format the serving layer speaks
// alongside JSON: a versioned, length-prefixed, little-endian framing of
// SpMV requests and responses whose payload is raw float64 buffers.
//
// The JSON path encodes every float64 as 17-24 ASCII bytes and burns CPU
// parsing them back; at serving scale the encode/decode dominates cost
// long before the tuned kernels do. The compiled plans already move data
// as fixed-index packets of raw float64 words, so the wire format simply
// extends that layout to the client boundary: a fixed header, the
// addressing strings, then nrhs×n float64 values verbatim. Decode is
// zero-copy on little-endian machines — the returned vectors alias the
// frame buffer — so a request's payload lands in the scheduler's batch
// buffers without ever being re-materialized.
//
// # Frame layout (all integers little-endian)
//
//	offset size  field
//	0      4     magic "SpMV" (0x53 0x70 0x4d 0x56)
//	4      1     version (currently 1)
//	5      1     op (OpMultiplyReq, OpMultiplyResp, OpSolveReq, OpSolveResp)
//	6      2     flags (bit 0: transpose; bit 1: converged — solve resp)
//	8      4     frame length in bytes, header included (the length prefix)
//	12     4     k (part count; 0 lets the server default)
//	16     4     nrhs (number of payload vectors)
//	20     4     n (length of each payload vector)
//	24     2     matrix name length in bytes
//	26     2     method name length in bytes
//	28     1     solver (SolverAuto/CG/LSQR/CGNR; solve frames)
//	29     3     reserved, must be zero
//	32     8     tol (solve req) / residual (solve resp), float64 bits
//	40     4     maxiter (solve req) / iterations (solve resp)
//	44     4     deadline_ms (requests; 0 means server default)
//	48     ...   matrix name bytes, then method name bytes
//	...    ...   zero padding to the next multiple of 8
//	...    ...   payload: nrhs × n float64 values, vector-major
//
// The frame length at offset 8 makes the format self-delimiting on a
// byte stream; over HTTP it must also equal the Content-Length. Decode
// rejects any frame whose magic, version, lengths, or padding disagree —
// truncated or corrupt frames are a typed *FormatError, never a panic.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// ContentType is the HTTP media type that negotiates this format on
// /v1/multiply and /v1/solve. Responses mirror the request encoding.
const ContentType = "application/x-spmv-frame"

// Magic is the first four frame bytes, "SpMV" read as ASCII.
const Magic uint32 = 0x564d7053

// Version is the frame version this package encodes and accepts.
const Version = 1

// headerSize is the fixed portion before the variable-length names.
const headerSize = 48

// Ops. Requests and responses are distinct so a stream peer can never
// mistake an echo for a reply.
const (
	OpMultiplyReq  = 1
	OpMultiplyResp = 2
	OpSolveReq     = 3
	OpSolveResp    = 4
)

// Flags.
const (
	// FlagTranspose marks a y ← Aᵀx request.
	FlagTranspose = 1 << 0
	// FlagConverged reports solver convergence on an OpSolveResp frame.
	FlagConverged = 1 << 1

	flagsKnown = FlagTranspose | FlagConverged
)

// Solver codes for solve frames.
const (
	SolverAuto = 0
	SolverCG   = 1
	SolverLSQR = 2
	SolverCGNR = 3
)

// SolverName maps a solver code to the JSON API's solver string; unknown
// codes return "".
func SolverName(code byte) string {
	switch code {
	case SolverAuto:
		return ""
	case SolverCG:
		return "cg"
	case SolverLSQR:
		return "lsqr"
	case SolverCGNR:
		return "cgnr"
	}
	return ""
}

// SolverCode maps a JSON solver string to its frame code; ok is false
// for names the frame cannot carry.
func SolverCode(name string) (byte, bool) {
	switch name {
	case "":
		return SolverAuto, true
	case "cg":
		return SolverCG, true
	case "lsqr":
		return SolverLSQR, true
	case "cgnr":
		return SolverCGNR, true
	}
	return 0, false
}

// MaxNameLen bounds the matrix and method name fields.
const MaxNameLen = 128

// MaxVectors bounds nrhs per frame — wide enough for any batch the
// scheduler would coalesce, small enough that a corrupt count cannot
// provoke a huge allocation before the length check catches it.
const MaxVectors = 4096

// Frame is one decoded (or to-be-encoded) message.
type Frame struct {
	Op        byte
	Transpose bool
	Converged bool // OpSolveResp only
	Matrix    string
	Method    string
	K         int
	// Vectors is the payload: nrhs vectors of one length. On decode they
	// alias the frame buffer when the platform allows zero-copy (see
	// Decode); the caller owns the buffer and must keep it live while the
	// vectors are in use.
	Vectors [][]float64
	// Tol/Residual and MaxIter/Iterations share header fields: the
	// request meaning first, the response meaning second.
	Tol        float64
	MaxIter    int
	DeadlineMs int
	Solver     byte
}

// FormatError reports a frame that does not parse. The serving layer
// maps it to HTTP 400.
type FormatError struct {
	Reason string
}

func (e *FormatError) Error() string { return "wire: " + e.Reason }

func badFrame(format string, args ...any) error {
	return &FormatError{Reason: fmt.Sprintf(format, args...)}
}

// nativeLittle reports whether the host is little-endian — the frame
// byte order — which enables the zero-copy payload paths.
var nativeLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Size returns the encoded byte length of f: header, names, padding,
// and payload.
func (f *Frame) Size() int {
	n := 0
	if len(f.Vectors) > 0 {
		n = len(f.Vectors[0])
	}
	return payloadOffset(len(f.Matrix), len(f.Method)) + len(f.Vectors)*n*8
}

// payloadOffset is where the float64 payload begins: the names rounded
// up to 8-byte alignment so the zero-copy view stays aligned.
func payloadOffset(matrixLen, methodLen int) int {
	return (headerSize + matrixLen + methodLen + 7) &^ 7
}

// check validates f for encoding and returns the shared vector length.
func (f *Frame) check() (n int, err error) {
	for i, v := range f.Vectors {
		if i == 0 {
			n = len(v)
		} else if len(v) != n {
			return 0, badFrame("vector %d has length %d, vector 0 has %d", i, len(v), n)
		}
	}
	if len(f.Matrix) > MaxNameLen || len(f.Method) > MaxNameLen {
		return 0, badFrame("name longer than %d bytes", MaxNameLen)
	}
	if len(f.Vectors) > MaxVectors {
		return 0, badFrame("%d vectors exceeds the %d per-frame bound", len(f.Vectors), MaxVectors)
	}
	return n, nil
}

// putHead encodes everything before the payload — fixed header, names —
// into b, which must be zeroed and payloadOffset bytes long (the zero
// tail is the alignment padding). n is the vector length, total the
// frame length.
func (f *Frame) putHead(b []byte, n, total int) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], Magic)
	b[4] = Version
	b[5] = f.Op
	var flags uint16
	if f.Transpose {
		flags |= FlagTranspose
	}
	if f.Converged {
		flags |= FlagConverged
	}
	le.PutUint16(b[6:], flags)
	le.PutUint32(b[8:], uint32(total))
	le.PutUint32(b[12:], uint32(f.K))
	le.PutUint32(b[16:], uint32(len(f.Vectors)))
	le.PutUint32(b[20:], uint32(n))
	le.PutUint16(b[24:], uint16(len(f.Matrix)))
	le.PutUint16(b[26:], uint16(len(f.Method)))
	b[28] = f.Solver
	le.PutUint64(b[32:], math.Float64bits(f.Tol))
	le.PutUint32(b[40:], uint32(f.MaxIter))
	le.PutUint32(b[44:], uint32(f.DeadlineMs))
	copy(b[headerSize:], f.Matrix)
	copy(b[headerSize+len(f.Matrix):], f.Method)
}

// floatBytes views v's storage as bytes. Only meaningful as wire data on
// a little-endian host.
func floatBytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// Append encodes f onto dst and returns the extended slice. Every
// vector must share one length; names must fit MaxNameLen.
func Append(dst []byte, f *Frame) ([]byte, error) {
	n, err := f.check()
	if err != nil {
		return nil, err
	}
	total := f.Size()
	off := len(dst)
	dst = append(dst, make([]byte, total)...)
	b := dst[off:]
	p := payloadOffset(len(f.Matrix), len(f.Method))
	f.putHead(b[:p], n, total)
	for _, v := range f.Vectors {
		if nativeLittle && len(v) > 0 {
			p += copy(b[p:], floatBytes(v))
			continue
		}
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[p:], math.Float64bits(x))
			p += 8
		}
	}
	return dst, nil
}

// WriteTo encodes f onto w — byte for byte what Append produces — and
// returns the bytes written. The payload is never assembled: after the
// header and names, each vector's storage is handed to w in place on
// little-endian hosts (converted through a small buffer elsewhere), so
// a response costs no copy of its vectors. A frame that fails
// validation is refused with a *FormatError before anything is
// written; any other error is w's. The caller must keep the vectors
// unchanged until WriteTo returns.
func WriteTo(w io.Writer, f *Frame) (int64, error) {
	n, err := f.check()
	if err != nil {
		return 0, err
	}
	head := make([]byte, payloadOffset(len(f.Matrix), len(f.Method)))
	f.putHead(head, n, f.Size())
	m, err := w.Write(head)
	written := int64(m)
	if err != nil || n == 0 {
		return written, err
	}
	var conv []byte // byte-swapping hosts only
	for _, v := range f.Vectors {
		for len(v) > 0 {
			chunk, rest := floatBytes(v), v[:0]
			if !nativeLittle {
				if conv == nil {
					conv = make([]byte, 4096)
				}
				k := min(len(v), len(conv)/8)
				for i, x := range v[:k] {
					binary.LittleEndian.PutUint64(conv[i*8:], math.Float64bits(x))
				}
				chunk, rest = conv[:k*8], v[k:]
			}
			m, err = w.Write(chunk)
			written += int64(m)
			if err != nil {
				return written, err
			}
			v = rest
		}
	}
	return written, nil
}

// Decode parses one frame from buf, which must contain the frame
// exactly (no trailing bytes — over HTTP the body is the frame). The
// returned Frame's Vectors alias buf when the host is little-endian and
// buf's payload is 8-byte aligned in memory; otherwise they are copies.
// Either way the float64 bit patterns transfer exactly. Malformed input
// returns a *FormatError and never panics.
func Decode(buf []byte) (*Frame, error) {
	if len(buf) < headerSize {
		return nil, badFrame("frame truncated: %d bytes, header needs %d", len(buf), headerSize)
	}
	le := binary.LittleEndian
	if m := le.Uint32(buf[0:]); m != Magic {
		return nil, badFrame("bad magic 0x%08x", m)
	}
	if v := buf[4]; v != Version {
		return nil, badFrame("unsupported version %d (this build speaks %d)", v, Version)
	}
	f := &Frame{Op: buf[5]}
	switch f.Op {
	case OpMultiplyReq, OpMultiplyResp, OpSolveReq, OpSolveResp:
	default:
		return nil, badFrame("unknown op %d", f.Op)
	}
	flags := le.Uint16(buf[6:])
	if flags&^uint16(flagsKnown) != 0 {
		return nil, badFrame("unknown flags 0x%04x", flags)
	}
	f.Transpose = flags&FlagTranspose != 0
	f.Converged = flags&FlagConverged != 0
	total := int(le.Uint32(buf[8:]))
	if total != len(buf) {
		return nil, badFrame("frame length field says %d bytes, body has %d", total, len(buf))
	}
	f.K = int(le.Uint32(buf[12:]))
	nrhs := int(le.Uint32(buf[16:]))
	n := int(le.Uint32(buf[20:]))
	matrixLen := int(le.Uint16(buf[24:]))
	methodLen := int(le.Uint16(buf[26:]))
	if buf[29] != 0 || buf[30] != 0 || buf[31] != 0 {
		return nil, badFrame("reserved header bytes not zero")
	}
	f.Solver = buf[28]
	if f.Solver > SolverCGNR {
		return nil, badFrame("unknown solver code %d", f.Solver)
	}
	f.Tol = math.Float64frombits(le.Uint64(buf[32:]))
	f.MaxIter = int(le.Uint32(buf[40:]))
	f.DeadlineMs = int(le.Uint32(buf[44:]))
	if matrixLen > MaxNameLen || methodLen > MaxNameLen {
		return nil, badFrame("name longer than %d bytes", MaxNameLen)
	}
	if nrhs > MaxVectors {
		return nil, badFrame("%d vectors exceeds the %d per-frame bound", nrhs, MaxVectors)
	}
	p := payloadOffset(matrixLen, methodLen)
	if p > len(buf) {
		return nil, badFrame("frame truncated inside names: %d bytes, names need %d", len(buf), p)
	}
	f.Matrix = string(buf[headerSize : headerSize+matrixLen])
	f.Method = string(buf[headerSize+matrixLen : headerSize+matrixLen+methodLen])
	for _, pad := range buf[headerSize+matrixLen+methodLen : p] {
		if pad != 0 {
			return nil, badFrame("nonzero padding byte")
		}
	}
	want := int64(p) + int64(nrhs)*int64(n)*8
	if want != int64(len(buf)) {
		return nil, badFrame("payload: header declares %d×%d float64 (%d bytes), frame carries %d",
			nrhs, n, int64(nrhs)*int64(n)*8, len(buf)-p)
	}
	if nrhs > 0 {
		f.Vectors = make([][]float64, nrhs)
		for i := range f.Vectors {
			f.Vectors[i] = decodeFloats(buf[p+i*n*8:p+(i+1)*n*8], n)
		}
	}
	return f, nil
}

// decodeFloats views (or copies) n float64 values from b. The zero-copy
// view requires the native byte order to match the wire's (little) and
// the slice base to be 8-byte aligned; both hold on the platforms we
// serve from, and the copying fallback is bit-exact everywhere else.
func decodeFloats(b []byte, n int) []float64 {
	if n == 0 {
		return nil
	}
	if nativeLittle && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}
