package grid

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The instance text format is a small, line-oriented exchange format:
//
//	ivc2d X Y          or   ivc3d X Y Z
//	w w w ...              (X*Y or X*Y*Z weights, whitespace separated,
//	                        any line breaking, '#' starts a comment)
//
// It is what cmd/ivc reads and what the dataset suite can export, so users
// can run the heuristics on their own voxelized workloads.

// Write2D encodes g in the instance text format, one row per line.
func Write2D(w io.Writer, g *Grid2D) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "ivc2d %d %d\n", g.X, g.Y)
	for j := 0; j < g.Y; j++ {
		for i := 0; i < g.X; i++ {
			if i > 0 {
				bw.WriteByte(' ')
			}
			bw.WriteString(strconv.FormatInt(g.At(i, j), 10))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Write3D encodes g in the instance text format, one row per line with a
// blank line between layers.
func Write3D(w io.Writer, g *Grid3D) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "ivc3d %d %d %d\n", g.X, g.Y, g.Z)
	for k := 0; k < g.Z; k++ {
		for j := 0; j < g.Y; j++ {
			for i := 0; i < g.X; i++ {
				if i > 0 {
					bw.WriteByte(' ')
				}
				bw.WriteString(strconv.FormatInt(g.At(i, j, k), 10))
			}
			bw.WriteByte('\n')
		}
		if k+1 < g.Z {
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// Read parses an instance in the text format and returns exactly one of a
// 2D or 3D grid, the other being nil.
func Read(r io.Reader) (*Grid2D, *Grid3D, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<24)
	header, err := nextTokens(sc)
	if err != nil {
		return nil, nil, fmt.Errorf("grid: missing header: %w", err)
	}
	switch header[0] {
	case "ivc2d":
		if len(header) != 3 {
			return nil, nil, fmt.Errorf("grid: ivc2d header wants 2 dims, got %d", len(header)-1)
		}
		x, err1 := strconv.Atoi(header[1])
		y, err2 := strconv.Atoi(header[2])
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("grid: bad ivc2d dimensions %q %q", header[1], header[2])
		}
		// Validate the dimensions, then read and count the weights before
		// anything is sized by the header: a hostile header must not
		// drive a huge allocation.
		cells, err := cells2D(x, y)
		if err != nil {
			return nil, nil, err
		}
		weights, total, err := readWeights(sc, cells)
		if err != nil {
			return nil, nil, err
		}
		return &Grid2D{X: x, Y: y, W: weights, total: total}, nil, nil
	case "ivc3d":
		if len(header) != 4 {
			return nil, nil, fmt.Errorf("grid: ivc3d header wants 3 dims, got %d", len(header)-1)
		}
		x, err1 := strconv.Atoi(header[1])
		y, err2 := strconv.Atoi(header[2])
		z, err3 := strconv.Atoi(header[3])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, nil, fmt.Errorf("grid: bad ivc3d dimensions")
		}
		cells, err := cells3D(x, y, z)
		if err != nil {
			return nil, nil, err
		}
		weights, total, err := readWeights(sc, cells)
		if err != nil {
			return nil, nil, err
		}
		return nil, &Grid3D{X: x, Y: y, Z: z, W: weights, total: total}, nil
	default:
		return nil, nil, fmt.Errorf("grid: unknown header %q", header[0])
	}
}

func nextTokens(sc *bufio.Scanner) ([]string, error) {
	for sc.Scan() {
		line := sc.Text()
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		fields := strings.Fields(line)
		if len(fields) > 0 {
			return fields, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}

// readWeights reads exactly n weights (n already validated by the
// header's dimension checks) and returns them with their total.
func readWeights(sc *bufio.Scanner, n int) ([]int64, int64, error) {
	// The buffer grows with the weights actually read: n comes from the
	// header, which alone must not size an allocation.
	weights := make([]int64, 0, min(n, 4096))
	for len(weights) < n {
		fields, err := nextTokens(sc)
		if err != nil {
			return nil, 0, fmt.Errorf("grid: want %d weights, got %d: %w", n, len(weights), err)
		}
		for _, f := range fields {
			w, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("grid: bad weight %q: %w", f, err)
			}
			weights = append(weights, w)
			if len(weights) > n {
				return nil, 0, fmt.Errorf("grid: more than %d weights", n)
			}
		}
	}
	// The same checks as FromWeights2D/3D: no negative weight, and a
	// total that fits in int64.
	total, err := checkWeights(weights)
	if err != nil {
		return nil, 0, err
	}
	return weights, total, nil
}
