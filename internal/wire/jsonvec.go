package wire

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"unsafe"
)

// The JSON vector codec. A JSON request or reply is a small object
// around one or a few very long number arrays, and encoding/json spends
// nearly all of its time on those arrays: a validity pre-scan, then
// reflection and a literal store per element into a slice it regrows as
// it goes; on the way out a reflected encoder into a buffer it then
// copies. SplitJSON and JSONBody move exactly the arrays off that path —
// parsed in place into a slice allocated once, written straight into
// pooled buffers, both in parallel segments above splitGrain — and leave
// every other member to encoding/json, so names, types, unknown fields
// and error texts stay the standard library's. The numbers do too:
// decode hands each literal that passes the JSON number grammar to
// strconv.ParseFloat, the function encoding/json calls, and encode
// follows encoding/json's format rule through strconv.AppendFloat.

// splitGrain is the JSON text, in bytes, one segment of a vector must
// amount to before the vector is split across goroutines: an array is
// parsed (or written) in min(GOMAXPROCS, bytes/splitGrain) segments, so
// anything under two grains runs inline on the caller. A segment of
// this size is ~0.3 ms of work against the few µs a goroutine costs to
// start and join.
const splitGrain = 64 << 10

const (
	// typicalFloatText sizes buffers and converts splitGrain into values:
	// a float64 with a full 17-digit mantissa is ~20 bytes of JSON with
	// its separator.
	typicalFloatText = 20
	// maxFloatText bounds one value with its separator. The longest
	// encodings are -0.00000ddddddddddddddddd ('f' just above 1e-6) at 25
	// bytes and -d.dddddddddddddddde-308 at 24; the rest is margin.
	maxFloatText = 32
)

// SplitJSON walks body, which must be one JSON object, and decodes in
// place the number arrays held by two of its members: flat names the
// member whose value is an array of numbers, nested the one whose value
// is an array of such arrays ("" for none). rest is the object without
// those members, for json.Unmarshal; v and vs are nil when their member
// is absent and non-nil (possibly empty) when present.
//
// ok is false when the walk declines: body is not an object, a name is
// escaped, non-ASCII, a case variant or a repeat of flat or nested, or
// a vector holds anything but numbers that strconv.ParseFloat accepts
// (null, a nested value, 1e999, a grammar slip). The caller then gives
// the whole body to json.Unmarshal, whose verdict — and whose handling
// of the cases above — is the contract. When ok is true and rest
// unmarshals, the result equals json.Unmarshal(body) bit for bit; when
// rest does not unmarshal, body would not have either.
//
// The keys must be plain lower-case ASCII.
func SplitJSON(body []byte, flat, nested string) (rest []byte, v []float64, vs [][]float64, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return nil, nil, nil, false
	}
	rest = append(make([]byte, 0, 128), '{')
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		i++
	} else {
		for {
			// One member: "name" : value.
			if i >= len(body) || body[i] != '"' {
				return nil, nil, nil, false
			}
			nameAt := i
			q := bytes.IndexByte(body[i+1:], '"')
			if q < 0 {
				return nil, nil, nil, false
			}
			name := body[i+1 : i+1+q]
			i = skipSpace(body, i+q+2)
			if i >= len(body) || body[i] != ':' || !plainName(name) {
				return nil, nil, nil, false
			}
			i = skipSpace(body, i+1)
			switch {
			case string(name) == flat && v == nil:
				v, i = parseArray(body, i)
				if v == nil {
					return nil, nil, nil, false
				}
			case nested != "" && string(name) == nested && vs == nil:
				vs, i = parseNested(body, i)
				if vs == nil {
					return nil, nil, nil, false
				}
			case foldsTo(name, flat) || nested != "" && foldsTo(name, nested):
				// A repeat, or a spelling encoding/json also matches to the
				// field: which value wins is its rule, not ours.
				return nil, nil, nil, false
			default:
				end := skipValue(body, i)
				if end < 0 {
					return nil, nil, nil, false
				}
				if len(rest) > 1 {
					rest = append(rest, ',')
				}
				rest = append(rest, body[nameAt:end]...)
				i = end
			}
			i = skipSpace(body, i)
			if i >= len(body) {
				return nil, nil, nil, false
			}
			if body[i] == '}' {
				i++
				break
			}
			if body[i] != ',' {
				return nil, nil, nil, false
			}
			i = skipSpace(body, i+1)
		}
	}
	if skipSpace(body, i) != len(body) {
		return nil, nil, nil, false
	}
	return append(rest, '}'), v, vs, true
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// plainName reports whether a member name is its own spelling: no
// escape, which could spell a vector's name, and no byte past ASCII,
// which encoding/json's case folding could map onto one.
func plainName(name []byte) bool {
	for _, c := range name {
		if c == '\\' || c >= 0x80 {
			return false
		}
	}
	return true
}

// foldsTo reports whether an ASCII name equals the lower-case key under
// ASCII case folding, the part of encoding/json's field matching that
// plainName leaves possible.
func foldsTo(name []byte, key string) bool {
	if len(name) != len(key) {
		return false
	}
	for i, c := range name {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != key[i] {
			return false
		}
	}
	return true
}

// skipValue returns the index just past the JSON value that starts at
// b[i], or -1 when b ends inside it. It only finds the value's extent —
// quotes and brackets — and does not judge it: the bytes go to
// encoding/json inside the remainder.
func skipValue(b []byte, i int) int {
	for depth := 0; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			if i >= len(b) {
				return -1
			}
			if depth == 0 {
				return i + 1
			}
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			if depth == 0 {
				return i // the enclosing object's brace ends a scalar
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case depth == 0 && (c == ',' || isSpace(c)):
			return i // so does a comma or white space
		}
	}
	return -1
}

// parseNested decodes an array of number arrays starting at b[i] and
// returns it with the index past its ']', or nil when it declines.
func parseNested(b []byte, i int) ([][]float64, int) {
	if i >= len(b) || b[i] != '[' {
		return nil, 0
	}
	vs := [][]float64{}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return vs, i + 1
	}
	for {
		var v []float64
		if v, i = parseArray(b, i); v == nil {
			return nil, 0
		}
		vs = append(vs, v)
		i = skipSpace(b, i)
		if i >= len(b) {
			return nil, 0
		}
		if b[i] == ']' {
			return vs, i + 1
		}
		if b[i] != ',' {
			return nil, 0
		}
		i = skipSpace(b, i+1)
	}
}

// parseArray decodes the array of numbers starting at b[i] and returns
// it — non-nil, at its exact length — with the index past its ']', or
// nil when it declines. The commas are counted before anything is
// parsed, so the output is allocated once; above two grains of text the
// array is cut at commas into segments parsed concurrently into
// disjoint parts of it.
func parseArray(b []byte, i int) ([]float64, int) {
	if i >= len(b) || b[i] != '[' {
		return nil, 0
	}
	n := bytes.IndexByte(b[i:], ']')
	if n < 0 {
		return nil, 0
	}
	text, end := b[i+1:i+n], i+n+1
	if parts := min(runtime.GOMAXPROCS(0), len(text)/splitGrain); parts >= 2 {
		return parseSegments(text, parts), end
	}
	commas := bytes.Count(text, comma)
	if commas == 0 && skipSpace(text, 0) == len(text) {
		return []float64{}, end
	}
	out := make([]float64, commas+1)
	if !parseNumbers(text, out) {
		return nil, 0
	}
	return out, end
}

// parseSegments is parseArray's work on an array text long enough for
// parts goroutines: nil when any segment declines.
func parseSegments(text []byte, parts int) []float64 {
	// Segment k is text[cut[k]:cut[k+1]-1]: the comma before each inner
	// cut belongs to neither side. count[k] is the values before it.
	cut, count := make([]int, parts+1), make([]int, parts+1)
	for k := 1; k < parts; k++ {
		at := max(cut[k-1], k*(len(text)/parts))
		c := bytes.IndexByte(text[at:], ',')
		if c < 0 {
			parts = k
			break
		}
		cut[k] = at + c + 1
	}
	cut[parts] = len(text) + 1
	for k := 0; k < parts; k++ {
		count[k+1] = count[k] + bytes.Count(text[cut[k]:cut[k+1]-1], comma) + 1
	}
	out := make([]float64, count[parts])
	ok := make([]bool, parts)
	var wg sync.WaitGroup
	for k := 1; k < parts; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok[k] = parseNumbers(text[cut[k]:cut[k+1]-1], out[count[k]:count[k+1]])
		}()
	}
	ok[0] = parseNumbers(text[:cut[1]-1], out[:count[1]])
	wg.Wait()
	if slices.Contains(ok, false) {
		return nil
	}
	return out
}

var comma = []byte{','}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// parseNumbers parses exactly len(out) comma-separated JSON numbers
// from s, which holds len(out)-1 commas, and reports whether s was
// that and nothing else. The grammar — -?(0|[1-9][0-9]*)(\.[0-9]+)?
// ([eE][+-]?[0-9]+)? between optional white space — is checked here
// because ParseFloat's is wider (hex, underscores, Inf, a leading +); the
// value is ParseFloat's, and a literal it refuses (out of range) fails
// the parse.
//
//spmv:hotpath
func parseNumbers(s []byte, out []float64) bool {
	i := 0
	for k := range out {
		i = skipSpace(s, i)
		start := i
		if i < len(s) && s[i] == '-' {
			i++
		}
		switch {
		case i < len(s) && s[i] == '0':
			i++
		case i < len(s) && '1' <= s[i] && s[i] <= '9':
			for i++; i < len(s) && isDigit(s[i]); i++ {
			}
		default:
			return false
		}
		if i < len(s) && s[i] == '.' {
			i++
			digits := i
			for ; i < len(s) && isDigit(s[i]); i++ {
			}
			if i == digits {
				return false
			}
		}
		if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
			i++
			if i < len(s) && (s[i] == '+' || s[i] == '-') {
				i++
			}
			digits := i
			for ; i < len(s) && isDigit(s[i]); i++ {
			}
			if i == digits {
				return false
			}
		}
		f, err := strconv.ParseFloat(unsafe.String(&s[start], i-start), 64)
		if err != nil {
			return false
		}
		out[k] = f
		i = skipSpace(s, i)
		if k < len(out)-1 {
			if i >= len(s) || s[i] != ',' {
				return false
			}
			i++
		}
	}
	return i == len(s)
}

// NonFiniteError reports a result value JSON has no literal for. The
// serving layer answers 500 with it: the request was fine, the product
// overflowed, and only the binary encoding can carry the answer.
type NonFiniteError struct {
	Key    string  // the reply member: "y", "ys", "x"
	Vector int     // which vector of a nested member; -1 for a flat one
	Index  int     // which element
	Value  float64 // NaN, +Inf or -Inf
}

func (e *NonFiniteError) Error() string {
	at := e.Key
	if e.Vector >= 0 {
		at = fmt.Sprintf("%s[%d]", e.Key, e.Vector)
	}
	return fmt.Sprintf("wire: result %s[%d] is %v: not representable in JSON; use %s",
		at, e.Index, e.Value, ContentType)
}

// JSONBody assembles a JSON reply: vector members first, written by
// this package, then the members of an object encoding/json marshalled.
// The text is byte for byte what json.Marshal gives for a struct with
// the same fields in that order, followed by a newline. It lies in
// pooled buffers — one, or one per segment of a vector large enough to
// be encoded concurrently — that WriteTo hands to the writer in order;
// Release returns them.
type JSONBody struct {
	segs []*[]byte // in reply order, never empty
}

var (
	jsonBodyPool = sync.Pool{New: func() any { return new(JSONBody) }}
	jsonBufPool  = sync.Pool{New: func() any { return new([]byte) }}
)

// NewJSONBody returns an empty body. The caller must Release it.
func NewJSONBody() *JSONBody {
	b := jsonBodyPool.Get().(*JSONBody)
	b.segs = append(b.segs, jsonBufPool.Get().(*[]byte))
	return b
}

// Release returns the body and its buffers to their pools. The body
// must not be used again.
func (b *JSONBody) Release() {
	for i, seg := range b.segs {
		*seg = (*seg)[:0]
		jsonBufPool.Put(seg)
		b.segs[i] = nil
	}
	b.segs = b.segs[:0]
	jsonBodyPool.Put(b)
}

// Len is the body's length in bytes.
func (b *JSONBody) Len() int {
	n := 0
	for _, seg := range b.segs {
		n += len(*seg)
	}
	return n
}

// WriteTo writes the body to w.
func (b *JSONBody) WriteTo(w io.Writer) (int64, error) {
	var written int64
	for _, seg := range b.segs {
		n, err := w.Write(*seg)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// last is the buffer the body currently grows at.
func (b *JSONBody) last() *[]byte { return b.segs[len(b.segs)-1] }

// empty reports whether nothing has been written yet.
func (b *JSONBody) empty() bool { return len(b.segs) == 1 && len(*b.segs[0]) == 0 }

func (b *JSONBody) raw(s string) { *b.last() = append(*b.last(), s...) }

// member opens the next member: the brace or comma, then "key": — key
// being a name that needs no escaping.
func (b *JSONBody) member(key string) {
	if b.empty() {
		b.raw(`{"`)
	} else {
		b.raw(`,"`)
	}
	b.raw(key)
	b.raw(`":`)
}

// Vector appends the member key whose value is the array v (null when v
// is nil, as json.Marshal has it). It fails with a *NonFiniteError on
// the first NaN or infinity; the body is then good only for Release.
func (b *JSONBody) Vector(key string, v []float64) error {
	b.member(key)
	if at := b.floats(v); at >= 0 {
		return &NonFiniteError{Key: key, Vector: -1, Index: at, Value: v[at]}
	}
	return nil
}

// Vectors appends the member key whose value is the array of arrays vs.
// It fails as Vector does.
func (b *JSONBody) Vectors(key string, vs [][]float64) error {
	b.member(key)
	b.raw("[")
	for i, v := range vs {
		if i > 0 {
			b.raw(",")
		}
		if at := b.floats(v); at >= 0 {
			return &NonFiniteError{Key: key, Vector: i, Index: at, Value: v[at]}
		}
	}
	b.raw("]")
	return nil
}

// Finish appends the members of rest — an object of at least one member,
// as json.Marshal wrote it — which closes the body's own object, and
// ends the line.
func (b *JSONBody) Finish(rest []byte) {
	if !b.empty() {
		b.raw(",")
		rest = rest[1:]
	}
	*b.last() = append(append(*b.last(), rest...), '\n')
}

// floats appends v as a JSON array and returns -1, or the index of the
// first value that is not finite. A vector of at least two grains of
// text is cut into min(GOMAXPROCS, text/splitGrain) runs of values: the
// caller encodes the first onto the current buffer, goroutines the
// others into buffers of their own, which become the body's next
// segments.
func (b *JSONBody) floats(v []float64) int {
	if len(v) == 0 {
		if v == nil {
			b.raw("null")
		} else {
			b.raw("[]")
		}
		return -1
	}
	first := b.last()
	open := len(*first)
	parts := min(runtime.GOMAXPROCS(0), len(v)*typicalFloatText/splitGrain)
	bad := -1
	if parts < 2 {
		bad = appendFloats(first, v)
	} else {
		lo := func(k int) int { return k * len(v) / parts }
		bads := make([]int, parts)
		var wg sync.WaitGroup
		for k := 1; k < parts; k++ {
			seg := jsonBufPool.Get().(*[]byte)
			b.segs = append(b.segs, seg)
			wg.Add(1)
			go func() {
				defer wg.Done()
				bads[k] = appendFloats(seg, v[lo(k):lo(k+1)])
			}()
		}
		bads[0] = appendFloats(first, v[:lo(1)])
		wg.Wait()
		for k := parts - 1; k >= 0; k-- {
			if bads[k] >= 0 {
				bad = lo(k) + bads[k]
			}
		}
	}
	if bad >= 0 {
		return bad
	}
	// Every value was written behind a comma; the first one's is the
	// array's opening bracket.
	(*first)[open] = '['
	b.raw("]")
	return -1
}

// appendFloats appends ",v0,v1,…" to *buf and returns -1, or the index
// of the first value that is not finite. The buffer is grown here, by
// the typical text of what is left, and filled by putFloats, which
// stops short of overrunning it.
func appendFloats(buf *[]byte, v []float64) int {
	for at := 0; at < len(v); {
		*buf = slices.Grow(*buf, (len(v)-at)*typicalFloatText+maxFloatText)
		n, done, finite := putFloats((*buf)[len(*buf):cap(*buf)], v[at:])
		*buf = (*buf)[:len(*buf)+n]
		at += done
		if !finite {
			return at
		}
	}
	return -1
}

// putFloats writes values of v into dst, a comma before each, until v
// is done, fewer than maxFloatText bytes of dst remain, or a value is
// not finite. It returns the bytes written, the values written and
// whether it stopped for a value that is not finite. The format is
// encoding/json's: as ES6 does, 'f' except below 1e-6 and from 1e21,
// where it is 'e' with a two-digit negative exponent's leading zero
// dropped (e-09 → e-9).
//
//spmv:hotpath
func putFloats(dst []byte, v []float64) (n, done int, finite bool) {
	for done < len(v) && len(dst)-n >= maxFloatText {
		f := v[done]
		if f-f != 0 { // NaN or ±Inf
			return n, done, false
		}
		dst[n] = ','
		n++
		format := byte('f')
		if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		n += len(strconv.AppendFloat(dst[n:n], f, format, -1, 64))
		if format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			n--
		}
		done++
	}
	return n, done, true
}
