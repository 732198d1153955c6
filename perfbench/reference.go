package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"maskedspgemm/internal/sparse"
)

// References are computed once per run, before set-up starts, by code
// that shares nothing with the program's kernels.

// refMaskedSquare computes C = A ⊙ (A·A) by multiply-then-filter: each
// row of the full product A·A is accumulated in a map, then only the
// entries A's own pattern allows are kept.
func refMaskedSquare(a *sparse.CSR[float64]) *sparse.CSR[float64] {
	out := &sparse.CSR[float64]{Pattern: sparse.Pattern{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1)}}
	row := map[int32]float64{}
	for i := 0; i < a.Rows; i++ {
		clear(row)
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			k, aik := a.ColIdx[p], a.Val[p]
			for q := a.RowPtr[k]; q < a.RowPtr[k+1]; q++ {
				row[a.ColIdx[q]] += aik * a.Val[q]
			}
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if v, ok := row[a.ColIdx[p]]; ok {
				out.ColIdx = append(out.ColIdx, a.ColIdx[p])
				out.Val = append(out.Val, v)
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// relTol is the agreement required between a result and its reference:
// they sum the same products in different orders.
const relTol = 1e-9

// closeTo reports whether got agrees with want to relTol.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(1, math.Abs(want))
}

// checkScaled compares got with scale²·want: the same pattern, and
// every value within relTol. A values-only delta that scales A by s
// scales A ⊙ (A·A) by s².
func checkScaled(got, want *sparse.CSR[float64], scale float64) error {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("result is %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if got.NNZ() != want.NNZ() {
		return fmt.Errorf("result has %d entries, want %d", got.NNZ(), want.NNZ())
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			return fmt.Errorf("row %d starts at entry %d, want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	s2 := scale * scale
	for k := range want.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] {
			return fmt.Errorf("entry %d in column %d, want %d", k, got.ColIdx[k], want.ColIdx[k])
		}
		if w := s2 * want.Val[k]; !closeTo(got.Val[k], w) {
			return fmt.Errorf("entry %d (column %d) is %v, want %v", k, want.ColIdx[k], got.Val[k], w)
		}
	}
	return nil
}

// patternDigest hashes a pattern with FNV-1a: the apps worker sends the
// digest of its k-truss instead of the matrix, and the harness compares
// it with the digest of the reference k-truss.
func patternDigest(p *sparse.Pattern) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(p.Rows))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(p.Cols))
	h.Write(buf[:])
	b := make([]byte, 0, 8*len(p.RowPtr))
	for _, v := range p.RowPtr {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	h.Write(b)
	b = b[:0]
	for _, c := range p.ColIdx {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
	}
	h.Write(b)
	return h.Sum64()
}

// checkVector compares a dense result with its reference to relTol.
func checkVector(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("vector has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !closeTo(got[i], want[i]) {
			return fmt.Errorf("entry %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
