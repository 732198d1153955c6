package core

import (
	"sync/atomic"
	"testing"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// TestOnePhaseEngine drives the one-phase driver with a synthetic row
// kernel to pin slab layout and compaction behaviour directly.
func TestOnePhaseEngine(t *testing.T) {
	// 4 rows; offsets give each row i a slab of i+1 slots; the kernel
	// writes k entries to row k (using its full slab).
	offsets := []int64{0, 1, 3, 6, 10}
	numeric := func(_, i int, outIdx []int32, outVal []float64) int {
		if len(outIdx) != i+1 {
			t.Errorf("row %d slab size %d, want %d", i, len(outIdx), i+1)
		}
		for k := 0; k <= i; k++ {
			outIdx[k] = int32(k)
			outVal[k] = float64(i*10 + k)
		}
		return i + 1
	}
	out, err := onePhase(4, 8, offsets, rowSched{threads: 2, grain: 1}, kernels[float64]{numeric: numeric}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if out.NNZ() != 10 {
		t.Fatalf("nnz = %d, want 10", out.NNZ())
	}
	for i := 0; i < 4; i++ {
		if out.RowNNZ(i) != i+1 {
			t.Fatalf("row %d nnz = %d", i, out.RowNNZ(i))
		}
		if out.RowVals(i)[i] != float64(i*10+i) {
			t.Fatalf("row %d values misplaced: %v", i, out.RowVals(i))
		}
	}
}

// TestOnePhasePartialRows checks compaction when rows underfill their
// slabs (the normal masked case: nnz(C_i*) < slab).
func TestOnePhasePartialRows(t *testing.T) {
	offsets := []int64{0, 5, 10, 15}
	numeric := func(_, i int, outIdx []int32, outVal []float64) int {
		if i == 1 {
			return 0 // empty output row
		}
		outIdx[0] = 7
		outVal[0] = float64(i)
		return 1
	}
	out, err := onePhase(3, 8, offsets, rowSched{threads: 1, grain: 1}, kernels[float64]{numeric: numeric}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.NNZ() != 2 || out.RowNNZ(1) != 0 {
		t.Fatalf("compaction wrong: nnz=%d row1=%d", out.NNZ(), out.RowNNZ(1))
	}
}

// TestTwoPhaseEngine checks symbolic sizing drives exact allocation.
func TestTwoPhaseEngine(t *testing.T) {
	symbolic := func(_, i int) int { return i % 3 }
	numeric := func(_, i int, outIdx []int32, outVal []float64) int {
		n := i % 3
		if len(outIdx) != n {
			t.Errorf("row %d given %d slots, want %d", i, len(outIdx), n)
		}
		for k := 0; k < n; k++ {
			outIdx[k] = int32(k)
			outVal[k] = 1
		}
		return n
	}
	out, err := twoPhase(7, 5, rowSched{threads: 2, grain: 2}, kernels[float64]{numeric: numeric, symbolic: symbolic}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	want := int64(0 + 1 + 2 + 0 + 1 + 2 + 0)
	if out.NNZ() != want {
		t.Fatalf("nnz = %d, want %d", out.NNZ(), want)
	}
}

// TestLazySlots checks one scratch per worker, created on demand.
func TestLazySlots(t *testing.T) {
	var made atomic.Int32
	slots := newLazySlots(4, func() *int {
		made.Add(1)
		v := int(made.Load())
		return &v
	})
	a := slots.get(2)
	b := slots.get(2)
	if a != b {
		t.Error("same tid must reuse scratch")
	}
	_ = slots.get(0)
	if made.Load() != 2 {
		t.Errorf("made %d scratches, want 2", made.Load())
	}
}

// TestMaskedSpGEMMMinPlus exercises a non-arithmetic semiring whose
// additive identity is +inf (tropical): one-hop constrained shortest
// paths. Cross-checked against the dense oracle with the same algebra.
func TestMaskedSpGEMMMinPlus(t *testing.T) {
	sr := semiring.MinPlusF64{}
	a, _ := sparse.FromRows(3, 3, map[int]map[int]float64{
		0: {1: 1, 2: 5},
		1: {2: 1},
		2: {0: 2},
	})
	mask, _ := sparse.FromRows(3, 3, map[int]map[int]float64{
		0: {2: 1}, 1: {0: 1}, 2: {1: 1},
	})
	want := sparse.DenseMaskedMultiply(mask.PatternView(), a, a, false, sr.Add, sr.Mul, sr.Zero())
	// Path 0→1→2 costs 2; admitted at (0,2) by the mask.
	if v, ok := want.At(0, 2); !ok || v != 2 {
		t.Fatalf("oracle sanity: (0,2) = %v, %v", v, ok)
	}
	for _, algo := range []Algorithm{AlgoMSA, AlgoHash, AlgoMCA, AlgoHeap, AlgoInner} {
		got, err := MaskedSpGEMM(sr, mask.PatternView(), a, a, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if d := sparse.Diff(want, got, sparse.FloatEq(0)); d != "" {
			t.Fatalf("%v: %s", algo, d)
		}
	}
}

// TestMaskedSpGEMMBoolean runs the reachability semiring end to end.
func TestMaskedSpGEMMBoolean(t *testing.T) {
	sr := semiring.Boolean{}
	a, _ := sparse.FromRows(3, 3, map[int]map[int]bool{
		0: {1: true},
		1: {2: true},
	})
	mask, _ := sparse.FromRows(3, 3, map[int]map[int]bool{0: {2: true}, 2: {0: true}})
	want := sparse.DenseMaskedMultiply(mask.PatternView(), a, a, false, sr.Add, sr.Mul, sr.Zero())
	for _, algo := range []Algorithm{AlgoMSA, AlgoHash, AlgoHeap} {
		got, err := MaskedSpGEMM(sr, mask.PatternView(), a, a, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !sparse.Equal(want, got) {
			t.Fatalf("%v: boolean mismatch", algo)
		}
		if v, ok := got.At(0, 2); !ok || !v {
			t.Fatalf("%v: two-hop reachability missing", algo)
		}
	}
}
