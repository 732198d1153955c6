package core

import (
	"testing"

	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// spvmOracle computes the masked vector product via the dense matrix
// oracle on a 1×k "matrix" u.
func spvmOracle(mask []int32, u *sparse.Vector[float64], b *sparse.CSR[float64], complement bool) *sparse.Vector[float64] {
	um := &sparse.CSR[float64]{
		Pattern: sparse.Pattern{Rows: 1, Cols: u.N, RowPtr: []int64{0, int64(u.NNZ())}, ColIdx: u.Idx},
		Val:     u.Val,
	}
	mm := &sparse.Pattern{Rows: 1, Cols: b.Cols, RowPtr: []int64{0, int64(len(mask))}, ColIdx: mask}
	sr := semiring.PlusTimes[float64]{}
	c := sparse.DenseMaskedMultiply(mm, um, b, complement, sr.Add, sr.Mul, sr.Zero())
	return &sparse.Vector[float64]{N: b.Cols, Idx: c.Row(0), Val: c.RowVals(0)}
}

func vecEqual(a, b *sparse.Vector[float64]) bool {
	if a.N != b.N || a.NNZ() != b.NNZ() {
		return false
	}
	eq := sparse.FloatEq(1e-9)
	for k := range a.Idx {
		if a.Idx[k] != b.Idx[k] || !eq(a.Val[k], b.Val[k]) {
			return false
		}
	}
	return true
}

func TestMaskedSpVMAgainstOracle(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	b := gen.Random(60, 60, 8, 51)
	uRow := gen.Random(1, 60, 12, 52)
	u := sparse.RowVector(uRow, 0)
	maskRow := gen.Random(1, 60, 10, 53)
	mask := maskRow.Row(0)

	plainAlgos := []Algorithm{AlgoMSA, AlgoHash, AlgoMCA, AlgoHeap, AlgoHeapDot}
	want := spvmOracle(mask, u, b, false)
	for _, algo := range plainAlgos {
		got, err := MaskedSpVMWith(NewExecutor[float64](sr), mask, u, b, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !vecEqual(want, got) {
			t.Errorf("%v: mismatch (got %v/%v, want %v/%v)", algo, got.Idx, got.Val, want.Idx, want.Val)
		}
	}

	compAlgos := []Algorithm{AlgoMSA, AlgoHash, AlgoHeap}
	wantC := spvmOracle(mask, u, b, true)
	for _, algo := range compAlgos {
		got, err := MaskedSpVMWith(NewExecutor[float64](sr), mask, u, b, Options{Algorithm: algo, Complement: true})
		if err != nil {
			t.Fatalf("%v complement: %v", algo, err)
		}
		if !vecEqual(wantC, got) {
			t.Errorf("%v complement: mismatch", algo)
		}
	}
}

func TestMaskedSpVMErrors(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	b := gen.Random(10, 10, 3, 1)
	u := sparse.NewVector[float64](11) // wrong dimension
	if _, err := MaskedSpVMWith(NewExecutor[float64](sr), nil, u, b, Options{}); err == nil {
		t.Error("want dimension error")
	}
	u2 := sparse.NewVector[float64](10)
	if _, err := MaskedSpVMWith(NewExecutor[float64](sr), nil, u2, b, Options{Algorithm: AlgoInner}); err == nil {
		t.Error("want unsupported-algorithm error for Inner")
	}
	if _, err := MaskedSpVMWith(NewExecutor[float64](sr), nil, u2, b, Options{Algorithm: AlgoMCA, Complement: true}); err == nil {
		t.Error("want unsupported-algorithm error for complemented MCA")
	}
}

func TestMaskedSpVMEmpty(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	b := gen.Random(10, 10, 3, 2)
	u := sparse.NewVector[float64](10)
	got, err := MaskedSpVMWith(NewExecutor[float64](sr), []int32{0, 5}, u, b, Options{Algorithm: AlgoMSA})
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 {
		t.Error("empty vector times matrix must be empty")
	}
	got, err = MaskedSpVMWith(NewExecutor[float64](sr), nil, sparse.RowVector(gen.Random(1, 10, 5, 3), 0), b, Options{Algorithm: AlgoMSA})
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 {
		t.Error("empty mask must produce empty output")
	}
}

func TestHybridRowStats(t *testing.T) {
	// Dense inputs + sparse mask → mostly pull rows.
	aD := gen.Random(64, 64, 32, 61)
	mSparse := gen.Random(64, 64, 1, 62).PatternView()
	pull, push := HybridRowStats(mSparse, aD, aD)
	if pull+push != 64 {
		t.Fatalf("rows don't add up: %d+%d", pull, push)
	}
	if pull == 0 {
		t.Error("dense inputs + sparse mask should produce pull rows")
	}
	// Sparse inputs + dense mask → mostly push rows.
	aS := gen.Random(64, 64, 2, 63)
	mDense := gen.Random(64, 64, 48, 64).PatternView()
	pull2, push2 := HybridRowStats(mDense, aS, aS)
	if push2 == 0 {
		t.Error("sparse inputs + dense mask should produce push rows")
	}
	_ = pull2
}

// TestHybridMixedRegime builds a matrix whose rows straddle the
// crossover and checks Hybrid still matches the oracle (the per-row
// switch must not corrupt boundaries).
func TestHybridMixedRegime(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	n := 100
	// Mask: first half rows dense, second half nearly empty.
	coo := sparse.NewCOO[float64](n, n, 0)
	rng := gen.NewRNG(65)
	for i := 0; i < n; i++ {
		deg := 40
		if i >= n/2 {
			deg = 1
		}
		for d := 0; d < deg; d++ {
			coo.Append(int32(i), int32(rng.Intn(n)), 1)
		}
	}
	maskM, err := coo.ToCSR(nil)
	if err != nil {
		t.Fatal(err)
	}
	mask := maskM.PatternView()
	a := gen.Random(n, n, 20, 66)
	b := gen.Random(n, n, 20, 67)
	want := sparse.DenseMaskedMultiply(mask, a, b, false, sr.Add, sr.Mul, sr.Zero())
	for _, ph := range []Phases{OnePhase, TwoPhase} {
		got, err := MaskedSpGEMM(sr, mask, a, b, Options{Algorithm: AlgoHybrid, Phases: ph})
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.Diff(want, got, sparse.FloatEq(1e-9)); d != "" {
			t.Fatalf("hybrid %v: %s", ph, d)
		}
	}
	pull, push := HybridRowStats(mask, a, b)
	if pull == 0 || push == 0 {
		t.Errorf("mixed regime should use both paths (pull=%d push=%d)", pull, push)
	}
}
