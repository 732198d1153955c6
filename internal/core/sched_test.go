package core

import (
	"fmt"
	"testing"

	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// skewedCase builds a masked product with a planted hub cluster: the
// first hubRows rows of A are dense (cost ~cols each) while the rest
// carry a couple of entries — the adversarial shape for a static row
// split, which lumps all the hubs into the first worker's share.
func skewedCase(rows, cols, hubRows int) (*sparse.Pattern, *sparse.CSR[float64], *sparse.CSR[float64]) {
	rowsSpec := map[int]map[int]float64{}
	for i := 0; i < rows; i++ {
		r := map[int]float64{}
		if i < hubRows {
			for j := 0; j < cols; j += 2 {
				r[j] = 1
			}
		} else {
			r[(i*7)%cols] = 1
			r[(i*13+5)%cols] = 1
		}
		rowsSpec[i] = r
	}
	a, err := sparse.FromRows(rows, cols, rowsSpec)
	if err != nil {
		panic(err)
	}
	return a.PatternView(), a, a
}

// checkScheduleParity runs every scheme × {1P, 2P} × threads 1–4 over
// one masked product (complemented when asked, for the schemes that
// support it) and compares each result with the dense oracle: the row
// scheduler only changes who computes which row, never the product.
// A small grain multiplies the blocks, and with them the steals.
func checkScheduleParity(t *testing.T, mask *sparse.Pattern, a, b *sparse.CSR[float64], complement bool) {
	t.Helper()
	sr := semiring.PlusTimes[float64]{}
	want := oracle(mask, a, b, complement)
	for _, algo := range Algorithms() {
		if complement && !SupportsComplement(algo) {
			continue
		}
		for _, ph := range []Phases{OnePhase, TwoPhase} {
			for threads := 1; threads <= 4; threads++ {
				for _, grain := range []int{0, 4} {
					opt := Options{Algorithm: algo, Phases: ph, Complement: complement, Threads: threads, Grain: grain}
					name := fmt.Sprintf("%s/complement=%v/t%d/g%d", opt.SchemeName(), complement, threads, grain)
					got, err := MaskedSpGEMM(sr, mask, a, b, opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if d := sparse.Diff(want, got, sparse.FloatEq(1e-12)); d != "" {
						t.Fatalf("%s: %s", name, d)
					}
				}
			}
		}
	}
}

// TestScheduleParity checks every execution path against the oracle on
// the planted hub cluster, with a plain and a complemented mask.
func TestScheduleParity(t *testing.T) {
	mask, a, b := skewedCase(300, 300, 3)
	for _, complement := range []bool{false, true} {
		checkScheduleParity(t, mask, a, b, complement)
	}
}

// TestScheduleParityComplement runs the complemented path on a
// rectangular random product, where the §5.2 output bounds differ
// from the mask's own layout.
func TestScheduleParityComplement(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 120, 100, 110, 5, 5, 12, 17})
	checkScheduleParity(t, mask, a, b, true)
}

// TestSchedStatsCollected checks the telemetry path end to end:
// CollectSchedStats populates the executor's stats with the blocks the
// engine actually scheduled, and the option off leaves them untouched.
func TestSchedStatsCollected(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := skewedCase(256, 256, 2)
	p, err := NewPlan(sr, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 2, CollectSchedStats: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(a, b); err != nil {
		t.Fatal(err)
	}
	st := p.SchedStats()
	if st.Claimed() == 0 {
		t.Fatal("no blocks recorded with CollectSchedStats set")
	}
	if len(st.Workers) != 2 {
		t.Fatalf("stats sized for %d workers, want 2", len(st.Workers))
	}

	// The count must accumulate over one execution's passes but reset
	// across executions. Work stealing splits ranges at run-time
	// dependent points, so parallel block counts vary between
	// executions; a grain covering every row takes the serial path,
	// whose count is deterministic.
	whole, err := NewPlan(sr, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 2, Grain: mask.Rows, CollectSchedStats: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := whole.Execute(a, b); err != nil {
		t.Fatal(err)
	}
	first := whole.SchedStats().Claimed()
	if _, err := whole.Execute(a, b); err != nil {
		t.Fatal(err)
	}
	if got := whole.SchedStats().Claimed(); got != first {
		t.Errorf("stats leaked across executions: %d then %d", first, got)
	}

	off, err := NewPlan(sr, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := off.Execute(a, b); err != nil {
		t.Fatal(err)
	}
	if got := off.SchedStats().Claimed(); got != 0 {
		t.Errorf("stats recorded without the option: %d blocks", got)
	}
}

// TestFlopsAllocFree pins the satellite rework: the flop counters no
// longer allocate a per-row slice. Below the serial cutoff they run a
// straight loop — zero allocations; above it the only allocations are
// the scheduler's per-call constants, independent of rows.
func TestFlopsAllocFree(t *testing.T) {
	a := gen.Random(256, 256, 4, 3)
	b := gen.Random(256, 256, 4, 4)
	mask := gen.Random(256, 256, 4, 5).PatternView()
	if got := testing.AllocsPerRun(20, func() { Flops(a, b) }); got != 0 {
		t.Errorf("Flops allocates %v objects per call, want 0", got)
	}
	if got := testing.AllocsPerRun(20, func() { MaskedFlops(mask, a, b, false) }); got != 0 {
		t.Errorf("MaskedFlops allocates %v objects per call, want 0", got)
	}

	// Parallel path: O(threads) bookkeeping, never O(rows).
	big := gen.Random(20000, 2000, 8, 6)
	bigB := gen.Random(2000, 2000, 8, 7)
	if got := testing.AllocsPerRun(5, func() { Flops(big, bigB) }); got > 64 {
		t.Errorf("parallel Flops allocates %v objects per call, want O(threads) (< 64)", got)
	}

	// Parity with the definition.
	var want int64
	for i := 0; i < big.Rows; i++ {
		for _, k := range big.Row(i) {
			want += bigB.RowPtr[k+1] - bigB.RowPtr[k]
		}
	}
	if got := Flops(big, bigB); got != want {
		t.Errorf("Flops = %d, want %d", got, want)
	}
}

// TestSchedStatsDirectSchemeResets pins the review fix: a direct
// scheme (no row passes) executed with CollectSchedStats must reset
// the executor's record, not replay the previous execution's numbers.
func TestSchedStatsDirectSchemeResets(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := skewedCase(128, 128, 2)
	exec := NewExecutor[float64](sr)
	msa, err := NewPlan(sr, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 2, CollectSchedStats: true}, exec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := msa.Execute(a, b); err != nil {
		t.Fatal(err)
	}
	if exec.SchedStats().Claimed() == 0 {
		t.Fatal("row-kernel execution recorded nothing")
	}
	direct, err := NewPlan(sr, mask, a, b, Options{Algorithm: AlgoSaxpyThenMask, Threads: 2, CollectSchedStats: true}, exec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Execute(a, b); err != nil {
		t.Fatal(err)
	}
	if got := exec.SchedStats().Claimed(); got != 0 {
		t.Errorf("direct scheme replayed stale stats: %d blocks", got)
	}
}

// TestMaskedFlopsDenseBParity pins the cutoff fix: a small-nnz(A)
// product against dense B rows takes the parallel path, and both paths
// agree with the definition.
func TestMaskedFlopsDenseBParity(t *testing.T) {
	a := gen.Random(64, 64, 2, 41)      // tiny nnz(A)
	b := gen.Random(64, 2000, 1200, 42) // dense B rows
	mask := gen.Random(64, 2000, 600, 43).PatternView()
	if maskedFlopsSerialOK(mask, a, b) {
		t.Fatal("dense-B workload should not be classified serial")
	}
	got := MaskedFlops(mask, a, b, false)
	want := maskedFlopsRange(mask, a, b, false, 0, a.Rows)
	if got != want {
		t.Fatalf("MaskedFlops = %d, want %d", got, want)
	}
}

// TestExecuteErroredPassResetsSchedStats pins the telemetry contract
// behind Session's record-even-on-error behaviour: ExecuteOnOpts
// resets the executor's stats before anything can fail, so an errored
// execution issued with CollectSchedStats reads as an empty pass
// rather than replaying the previous execution's record.
func TestExecuteErroredPassResetsSchedStats(t *testing.T) {
	mask, a, b := buildCase(caseSpec{"", 128, 128, 128, 8, 8, 8, 31})
	exec := NewExecutor[float64](ptSR)
	p, err := NewPlan(ptSR, mask, a, b, Options{Algorithm: AlgoMSA, Threads: 2}, exec)
	if err != nil {
		t.Fatal(err)
	}
	eo := ExecOptions{CollectSchedStats: true}
	if _, err := p.ExecuteOnOpts(exec, a, b, eo); err != nil {
		t.Fatal(err)
	}
	if exec.SchedStats().Claimed() == 0 {
		t.Fatal("successful pass recorded no blocks")
	}
	// Mismatched operands: checkArgs fails after the stats reset.
	bad, _, _ := buildCase(caseSpec{"", 64, 64, 64, 4, 4, 4, 32})
	wrong := &sparse.CSR[float64]{Pattern: *bad, Val: make([]float64, int(bad.NNZ()))}
	if _, err := p.ExecuteOnOpts(exec, wrong, b, eo); err == nil {
		t.Fatal("mismatched operands must error")
	}
	if got := exec.SchedStats(); got.Claimed() != 0 {
		t.Fatalf("errored pass replayed stale telemetry: %d blocks claimed", got.Claimed())
	}
}
