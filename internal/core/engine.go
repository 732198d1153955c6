package core

import (
	"maskedspgemm/internal/faultinject"
	"maskedspgemm/internal/parallel"
	"maskedspgemm/internal/sparse"
)

// The execution engine shared by every algorithm family. An algorithm
// contributes two row kernels — numeric and symbolic — and the engine
// supplies the one-phase and two-phase drivers around them (§6):
//
//   - One-phase: output rows are written into a pre-sized scratch slab
//     (for plain masks, the mask's own CSR layout — nnz(C_i*) ≤
//     nnz(M_i*) — which is exactly the paper's observation that the mask
//     approximates the output structure), then compacted with a prefix
//     sum.
//   - Two-phase: a symbolic pass counts each output row, a prefix sum
//     sizes the result exactly, and the numeric pass writes in place.
//
// Kernels receive a tid to index per-worker accumulator scratch.

// rowSched is the descriptor the engine drivers schedule row passes
// with: the worker count and row grain of parallel.ForEachBlockStats
// (DESIGN.md §9), an optional telemetry target, and the
// fault-containment hooks — the cancel token workers poll at block
// claims and the fault-injection hooks loaded for this execution (both
// usually nil; DESIGN.md §15).
type rowSched struct {
	threads, grain int
	stats          *parallel.SchedStats
	cancel         *parallel.CancelToken
	fi             *faultinject.Hooks
}

// run executes fn over [0, n) on the work-stealing row scheduler.
func (s rowSched) run(n int, fn func(lo, hi, tid int)) {
	parallel.ForEachBlockStats(n, s.threads, s.grain, s.stats, s.cancel, fn)
}

// enterPass is the checkpoint at a pass's entry: it fires the armed
// pass-granularity fault hooks, then reports cancellation so a
// canceled execution stops before starting the pass at all.
func (s rowSched) enterPass(p faultinject.Pass) error {
	s.fi.AtPass(p, s.cancel)
	return s.passCanceled(p)
}

// passCanceled is the checkpoint after a pass's row sweep: a latched
// token means the scheduler broke out early and the pass's output is
// partial, so the driver must discard it and surface which pass was
// interrupted.
func (s rowSched) passCanceled(p faultinject.Pass) error {
	if s.cancel.Canceled() {
		return &CanceledError{Pass: string(p)}
	}
	return nil
}

// rowNumericFn computes output row i into out slices (capacity ≥ the
// row's bound) and returns the entry count.
type rowNumericFn[T any] func(tid, i int, outIdx []int32, outVal []T) int

// rowSymbolicFn counts output row i without computing values.
type rowSymbolicFn func(tid, i int) int

// findRun returns the index of the run containing row i: the first
// run whose exclusive end exceeds i (binary search; runEnds is
// strictly increasing and covers every row).
func findRun(runEnds []int32, i int) int {
	lo, hi := 0, len(runEnds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(runEnds[mid]) <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// numericSegment returns the end of the longest prefix of [lo, hi)
// whose rows share one numeric kernel, together with that kernel.
// Uniform plans return the whole range; poly plans split at the run
// boundaries of the plan's per-row family binding, so dispatch is
// amortized per run ∩ block, never per row.
func (k *kernels[T]) numericSegment(lo, hi int) (int, rowNumericFn[T]) {
	if k.runEnds == nil {
		return hi, k.numeric
	}
	r := findRun(k.runEnds, lo)
	end := int(k.runEnds[r])
	if end > hi {
		end = hi
	}
	return end, k.numFam[k.runFam[r]]
}

// symbolicSegment is numericSegment for the symbolic pass.
func (k *kernels[T]) symbolicSegment(lo, hi int) (int, rowSymbolicFn) {
	if k.runEnds == nil {
		return hi, k.symbolic
	}
	r := findRun(k.runEnds, lo)
	end := int(k.runEnds[r])
	if end > hi {
		end = hi
	}
	return end, k.symFam[k.runFam[r]]
}

// onePhase runs the numeric kernel once per row into a slab laid out by
// offsets (len rows+1, offsets[i+1]-offsets[i] ≥ row i's worst case),
// then compacts. Row passes are scheduled by sch (work stealing —
// DESIGN.md §9) and follow the kernel binding's run boundaries. es
// supplies pooled scratch; nil allocates fresh. Cancellation
// (sch.cancel) is checked at pass checkpoints and block claims; an
// interrupted execution returns *CanceledError and no partial result.
func onePhase[T any](rows, cols int, offsets []int64, sch rowSched, k kernels[T], es *engineScratch[T]) (*sparse.CSR[T], error) {
	if err := sch.enterPass(faultinject.PassNumeric); err != nil {
		return nil, err
	}
	slab := offsets[rows]
	tmpIdx, tmpVal := es.slab(slab)
	counts := es.rowPtrBuf(rows + 1)
	fi := sch.fi
	sch.run(rows, func(lo, hi, tid int) {
		for lo < hi {
			seg, numeric := k.numericSegment(lo, hi)
			for i := lo; i < seg; i++ {
				if fi != nil {
					fi.Row(faultinject.PassNumeric, i)
				}
				base, end := offsets[i], offsets[i+1]
				counts[i] = int64(numeric(tid, i, tmpIdx[base:end], tmpVal[base:end]))
			}
			lo = seg
		}
	})
	if err := sch.passCanceled(faultinject.PassNumeric); err != nil {
		return nil, err
	}
	return compact(rows, cols, offsets, counts, tmpIdx, tmpVal, sch, es)
}

// compact gathers per-row segments (counts[i] entries starting at
// offsets[i]) into a tight CSR result.
func compact[T any](rows, cols int, offsets, counts []int64, tmpIdx []int32, tmpVal []T, sch rowSched, es *engineScratch[T]) (*sparse.CSR[T], error) {
	if err := sch.enterPass(faultinject.PassCompact); err != nil {
		return nil, err
	}
	rowPtr := counts // reuse: becomes the exclusive prefix sum
	parallel.PrefixSumParallel(rowPtr[:rows+1], sch.threads)
	colIdx, val := es.outBufs(rowPtr[rows])
	out := &sparse.CSR[T]{
		Pattern: sparse.Pattern{
			Rows:   rows,
			Cols:   cols,
			RowPtr: rowPtr,
			ColIdx: colIdx,
		},
		Val: val,
	}
	sch.run(rows, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			n := rowPtr[i+1] - rowPtr[i]
			src := offsets[i]
			copy(out.ColIdx[rowPtr[i]:rowPtr[i+1]], tmpIdx[src:src+n])
			copy(out.Val[rowPtr[i]:rowPtr[i+1]], tmpVal[src:src+n])
		}
	})
	if err := sch.passCanceled(faultinject.PassCompact); err != nil {
		return nil, err
	}
	return out, nil
}

// twoPhase runs the symbolic kernel to size every row, prefix-sums, and
// lets the numeric kernel write directly into the exact-size result.
// Both passes are scheduled by sch and follow the kernel binding's run
// boundaries. es supplies pooled output buffers; nil allocates fresh.
// Cancellation follows the onePhase contract.
func twoPhase[T any](rows, cols int, sch rowSched, k kernels[T], es *engineScratch[T]) (*sparse.CSR[T], error) {
	if err := sch.enterPass(faultinject.PassSymbolic); err != nil {
		return nil, err
	}
	rowPtr := es.rowPtrBuf(rows + 1)
	fi := sch.fi
	sch.run(rows, func(lo, hi, tid int) {
		for lo < hi {
			seg, symbolic := k.symbolicSegment(lo, hi)
			for i := lo; i < seg; i++ {
				if fi != nil {
					fi.Row(faultinject.PassSymbolic, i)
				}
				rowPtr[i] = int64(symbolic(tid, i))
			}
			lo = seg
		}
	})
	if err := sch.passCanceled(faultinject.PassSymbolic); err != nil {
		return nil, err
	}
	rowPtr[rows] = 0
	parallel.PrefixSumParallel(rowPtr, sch.threads)
	colIdx, val := es.outBufs(rowPtr[rows])
	out := &sparse.CSR[T]{
		Pattern: sparse.Pattern{
			Rows:   rows,
			Cols:   cols,
			RowPtr: rowPtr,
			ColIdx: colIdx,
		},
		Val: val,
	}
	if err := sch.enterPass(faultinject.PassNumeric); err != nil {
		return nil, err
	}
	sch.run(rows, func(lo, hi, tid int) {
		for lo < hi {
			seg, numeric := k.numericSegment(lo, hi)
			for i := lo; i < seg; i++ {
				if fi != nil {
					fi.Row(faultinject.PassNumeric, i)
				}
				numeric(tid, i, out.ColIdx[rowPtr[i]:rowPtr[i+1]], out.Val[rowPtr[i]:rowPtr[i+1]])
			}
			lo = seg
		}
	})
	if err := sch.passCanceled(faultinject.PassNumeric); err != nil {
		return nil, err
	}
	return out, nil
}

// lazySlots hands out one lazily-constructed scratch value per worker.
type lazySlots[A any] struct {
	slots []*A
	make  func() *A
}

func newLazySlots[A any](threads int, mk func() *A) *lazySlots[A] {
	return &lazySlots[A]{slots: make([]*A, threads), make: mk}
}

// get returns worker tid's scratch, constructing it on first use. Safe
// without synchronization because each tid is owned by one goroutine.
func (l *lazySlots[A]) get(tid int) *A {
	if l.slots[tid] == nil {
		l.slots[tid] = l.make()
	}
	return l.slots[tid]
}

// complementBounds computes, for every output row, the §5.2 upper bound
// on a complemented-mask output row: min(cols − nnz(m_i),
// Σ_{k : A_ik ≠ 0} nnz(B_k*)), returned as exclusive prefix offsets
// (len rows+1). The second term also bounds the accumulator population.
func complementBounds[T any](mask *sparse.Pattern, a, b *sparse.CSR[T], threads, grain int) []int64 {
	rows := mask.Rows
	offsets := make([]int64, rows+1)
	parallel.ForEachBlock(rows, threads, grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			var gen int64
			for _, k := range a.Row(i) {
				gen += b.RowPtr[k+1] - b.RowPtr[k]
			}
			free := int64(mask.Cols) - int64(mask.RowNNZ(i))
			if gen > free {
				gen = free
			}
			offsets[i] = gen
		}
	})
	parallel.PrefixSumParallel(offsets, threads)
	return offsets
}
