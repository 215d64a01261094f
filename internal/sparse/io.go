package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"
)

// WriteMatrixMarket writes m in MatrixMarket coordinate format
// ("%%MatrixMarket matrix coordinate real general"). Indices are 1-based on
// the wire per the format specification.
func WriteMatrixMarket(w io.Writer, m *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, m.ColIdx[p]+1, m.Val[p]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// maxEmptyDim is how far a dimension may exceed the declared entry
// count. CSR storage costs 16 bytes a row before the first entry, and the
// entries must all arrive before it is built, so a 60-byte header can
// claim 16 MB and no more; a real matrix has few empty rows or columns.
const maxEmptyDim = 1 << 20

// maxEntriesPresized caps the entry capacity reserved from the declared
// count; a larger matrix grows by appending.
const maxEntriesPresized = 1 << 20

// ReadMatrixMarket parses a MatrixMarket coordinate file. Supported
// qualifiers: real/integer/pattern and general/symmetric. Symmetric input
// is expanded to general storage (mirror entries added for off-diagonals).
//
// Real-world .mtx files are messy, so the parser is liberal where the
// spec allows: a UTF-8 BOM and blank lines before the header, `%`
// comment and blank lines anywhere after the header (including between
// entries and trailing at EOF), and CRLF line endings are all accepted.
// Data lines beyond the declared entry count are an error — a count
// mismatch means a truncated or corrupt upload, not formatting noise.
//
// The size line is outside input and is not trusted: a negative
// dimension or count, more entries than the matrix has cells, and a
// dimension more than maxEmptyDim above the entry count are errors, and
// memory for the entries is taken as they arrive. What a reader
// allocates is then bounded by what its input delivered, not by what the
// header claimed.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)

	first := ""
	for sc.Scan() {
		first = strings.TrimPrefix(sc.Text(), "\ufeff")
		if strings.TrimSpace(first) != "" {
			break
		}
	}
	if strings.TrimSpace(first) == "" {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("sparse: read: %w", err)
		}
		return nil, fmt.Errorf("sparse: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(first))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket header %q", first)
	}
	field, sym := header[3], header[4]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("sparse: unsupported field type %q", field)
	}
	switch sym {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("sparse: unsupported symmetry %q", sym)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return nil, fmt.Errorf("sparse: read: %w", err)
			}
			return nil, fmt.Errorf("sparse: missing size line")
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: bad size line %q: %w", line, err)
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("sparse: negative size line %d %d %d", rows, cols, nnz)
	}
	if hi, cells := bits.Mul64(uint64(rows), uint64(cols)); hi == 0 && uint64(nnz) > cells {
		return nil, fmt.Errorf("sparse: %d entries declared for a %dx%d matrix", nnz, rows, cols)
	}
	if rows-maxEmptyDim > nnz || cols-maxEmptyDim > nnz {
		return nil, fmt.Errorf("sparse: %dx%d matrix with %d entries: a dimension may exceed the entry count by at most %d",
			rows, cols, nnz, maxEmptyDim)
	}

	c := NewCOO(rows, cols)
	c.Entries = make([]Entry, 0, min(nnz, maxEntriesPresized))
	for read := 0; read < nnz; {
		if !sc.Scan() {
			// A truncated stream and a failed read are different failures:
			// surface the reader's own error (e.g. a body-size limit) so
			// callers can match its type.
			if err := sc.Err(); err != nil {
				return nil, fmt.Errorf("sparse: read: %w", err)
			}
			return nil, fmt.Errorf("sparse: expected %d entries, got %d", nnz, read)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		read++
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("sparse: malformed entry line %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row index in %q: %w", line, err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad col index in %q: %w", line, err)
		}
		v := 1.0
		if field != "pattern" {
			if len(f) < 3 {
				return nil, fmt.Errorf("sparse: missing value in %q", line)
			}
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value in %q: %w", line, err)
			}
		}
		c.Add(i-1, j-1, v)
		if sym == "symmetric" && i != j {
			c.Add(j-1, i-1, v)
		}
	}
	// Anything after the declared entries must be comments or blank
	// trailing lines.
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		return nil, fmt.Errorf("sparse: unexpected data after %d declared entries: %q", nnz, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c.ToCSR(), nil
}
