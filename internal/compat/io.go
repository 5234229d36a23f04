package compat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteTo serializes the matrix as text: a first line "compat <m>" followed
// by m rows of m space-separated probabilities (rows = true values). The
// format round-trips through ReadFrom.
func (c *Matrix) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	k, err := fmt.Fprintf(bw, "compat %d\n", c.m)
	n += int64(k)
	if err != nil {
		return n, err
	}
	for i := 0; i < c.m; i++ {
		for j := 0; j < c.m; j++ {
			sep := " "
			if j == 0 {
				sep = ""
			}
			k, err = fmt.Fprintf(bw, "%s%g", sep, c.dense[i][j])
			n += int64(k)
			if err != nil {
				return n, err
			}
		}
		k, err = fmt.Fprintln(bw)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadFrom parses the format produced by WriteTo and validates the matrix.
func ReadFrom(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	if !sc.Scan() {
		return nil, fmt.Errorf("compat: missing header: %w", firstErr(sc.Err()))
	}
	var m int
	if _, err := fmt.Sscanf(sc.Text(), "compat %d", &m); err != nil {
		return nil, fmt.Errorf("compat: bad header %q: %w", sc.Text(), err)
	}
	if m <= 0 {
		return nil, fmt.Errorf("compat: non-positive size %d", m)
	}
	// Rows are appended as they are parsed, so memory stays proportional to
	// the input: a header alone cannot claim an m-row table.
	var dense [][]float64
	for i := 0; i < m; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("compat: truncated at row %d: %w", i, firstErr(sc.Err()))
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != m {
			return nil, fmt.Errorf("compat: row %d has %d fields, want %d", i, len(fields), m)
		}
		row := make([]float64, m)
		for j, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("compat: row %d col %d: %w", i, j, err)
			}
			row[j] = v
		}
		dense = append(dense, row)
	}
	return New(dense)
}

func firstErr(err error) error {
	if err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}

// Fig2 returns the 5-symbol compatibility matrix of the paper's Figure 2,
// used by the worked examples of §3 and §4.1.
func Fig2() *Matrix {
	return MustNew([][]float64{
		{0.90, 0.10, 0.00, 0.00, 0.00},
		{0.05, 0.80, 0.05, 0.10, 0.00},
		{0.05, 0.00, 0.70, 0.15, 0.10},
		{0.00, 0.10, 0.10, 0.75, 0.05},
		{0.00, 0.00, 0.15, 0.00, 0.85},
	})
}
