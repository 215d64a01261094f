package sparse

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// Real-world .mtx files arrive with comment banners after the header,
// blank separator and trailing lines, CRLF endings, and the odd BOM.
// These tests pin the liberal-parse contract spmvserve's matrix upload
// endpoint relies on.

func TestMatrixMarketCommentsAfterHeader(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n" +
		"% generated by some exporter\n" +
		"%-----------------------------\n" +
		"\n" +
		"2 3 2\n" +
		"% entries follow\n" +
		"1 1 1.5\n" +
		"\n" +
		"2 3 -2.0\n" +
		"% trailing banner\n" +
		"\n" +
		"\n"
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 3 || m.NNZ() != 2 {
		t.Fatalf("parsed %dx%d nnz=%d, want 2x3 nnz=2", m.Rows, m.Cols, m.NNZ())
	}
}

func TestMatrixMarketCRLFAndBOM(t *testing.T) {
	in := "\ufeff%%MatrixMarket matrix coordinate real general\r\n" +
		"% comment\r\n" +
		"2 2 2\r\n" +
		"1 1 1.0\r\n" +
		"2 2 4.0\r\n" +
		"\r\n"
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 || m.Val[0] != 1.0 {
		t.Fatalf("CRLF parse wrong: nnz=%d val=%v", m.NNZ(), m.Val)
	}
}

func TestMatrixMarketBlankLinesBeforeHeader(t *testing.T) {
	in := "\n\n%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n"
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 1 {
		t.Fatalf("nnz = %d, want 1", m.NNZ())
	}
}

func TestMatrixMarketRejectsExtraEntries(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n" +
		"2 2 1\n" +
		"1 1 1.0\n" +
		"2 2 2.0\n" // beyond the declared count
	if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
		t.Fatal("expected error on data past the declared entry count")
	}
}

// decorate rewrites a well-formed MatrixMarket byte stream with the noise
// real exporters produce: comment lines, blank lines, and trailing
// whitespace, injected at positions drawn from r.
func decorate(r *rand.Rand, in []byte) []byte {
	lines := strings.Split(strings.TrimRight(string(in), "\n"), "\n")
	var out strings.Builder
	for i, line := range lines {
		out.WriteString(line)
		out.WriteByte('\n')
		if i == 0 || r.Intn(4) == 0 {
			switch r.Intn(3) {
			case 0:
				fmt.Fprintf(&out, "%% noise comment %d\n", i)
			case 1:
				out.WriteString("\n")
			case 2:
				out.WriteString("   \n")
			}
		}
	}
	for i := 0; i < r.Intn(3); i++ {
		out.WriteString("\n% trailing\n\n")
	}
	return []byte(out.String())
}

// TestMatrixMarketRoundTripFuzz writes randomized matrices, decorates the
// stream with comment/blank noise, and requires the read-back to be
// entry-for-entry identical.
func TestMatrixMarketRoundTripFuzz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomCSR(r, 1+r.Intn(30), 1+r.Intn(30), r.Intn(200))
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, m); err != nil {
			t.Logf("seed %d: write: %v", seed, err)
			return false
		}
		got, err := ReadMatrixMarket(bytes.NewReader(decorate(r, buf.Bytes())))
		if err != nil {
			t.Logf("seed %d: read: %v", seed, err)
			return false
		}
		if !m.Equal(got) {
			t.Logf("seed %d: round trip changed matrix", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// sizeLineCrashers are inputs whose size line alone used to panic the
// reader (makeslice: cap / len out of range): a negative count, a count
// no machine can hold, a negative dimension.
var sizeLineCrashers = []string{
	mmGeneral + "1 1 -1\n",
	mmGeneral + "1 1 4611686018427387904\n",
	mmGeneral + "-5 1 0\n",
}

const mmGeneral = "%%MatrixMarket matrix coordinate real general\n"

// TestMatrixMarketRejectsUntrustedSizeLine: the size line is outside
// input. A count or dimension that cannot be true is an error, never a
// panic, and a count that could be true reserves nothing until entries
// arrive.
func TestMatrixMarketRejectsUntrustedSizeLine(t *testing.T) {
	cases := append([]string{
		mmGeneral + "2 2 5\n1 1 1\n", // more entries than cells
		// 60 bytes that would be a 16 GB RowPtr — out of memory, which no
		// recover contains: a dimension is bounded by the entries delivered.
		mmGeneral + "2000000000 1 0\n",
		mmGeneral + "1 2000000000 1\n1 1 1\n",
		mmGeneral + fmt.Sprintf("%d 1 0\n", maxEmptyDim+1),
		mmGeneral + "4611686018427387904 4 1\n1 1 1\n", // rows*cols wraps to 0
		// Legal, and 16 GB of entries if taken at its word: fails on the
		// missing first entry instead.
		mmGeneral + "100000 100000 1000000000\n",
	}, sizeLineCrashers...)
	for _, in := range cases {
		if m, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q as %dx%d nnz=%d", in, m.Rows, m.Cols, m.NNZ())
		}
	}
	// The bound is on empty rows and columns, not on size.
	in := mmGeneral + fmt.Sprintf("%d 3 2\n1 1 1\n2 3 1\n", maxEmptyDim+2)
	if _, err := ReadMatrixMarket(strings.NewReader(in)); err != nil {
		t.Errorf("rejected a matrix with %d empty rows: %v", maxEmptyDim, err)
	}
}

// FuzzMatrixMarket: no input panics the reader, and whatever it accepts
// round-trips — written back out and read again it is the same CSR.
func FuzzMatrixMarket(f *testing.F) {
	for _, seed := range sizeLineCrashers {
		f.Add([]byte(seed))
	}
	for _, seed := range []string{
		"\ufeff%%MatrixMarket matrix coordinate real general\r\n% comment\r\n2 2 2\r\n1 1 1.0\r\n2 2 4.0\r\n\r\n",
		mmGeneral + "% banner\n\n2 3 2\n% entries follow\n1 1 1.5\n\n2 3 -2.0\n% trailing\n\n",
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2.0\n2 1 5.0\n3 3 1.0\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n",
		"%%MatrixMarket matrix coordinate integer general\n2 2 1\n5 1 1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMatrixMarket(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, m); err != nil {
			t.Fatal(err)
		}
		back, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("re-reading what was written: %v\n%s", err, buf.Bytes())
		}
		// Equal compares values with ==; a NaN entry is the same entry.
		same := m.Rows == back.Rows && m.Cols == back.Cols && slices.Equal(m.RowPtr, back.RowPtr) &&
			slices.Equal(m.ColIdx, back.ColIdx) && slices.EqualFunc(m.Val, back.Val, func(a, b float64) bool {
			return a == b || math.IsNaN(a) && math.IsNaN(b)
		})
		if !same {
			t.Fatalf("round trip changed the matrix:\n%q\n%s", data, buf.Bytes())
		}
	})
}
