package core

import (
	"fmt"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Masked SpGEVM — the single-row form v⊺ = m⊺ ⊙ (u⊺B) the paper uses
// to present all of §5's algorithms. It is exposed because masked
// vector-matrix products are the building block of frontier-style
// graph traversals (§4's push/pull motivation); internal/graph's
// direction-optimized BFS is built on it.

// MaskedSpVMWith computes v = m ⊙ (u⊺B) (complement: v = ¬m ⊙ (u⊺B))
// where mask holds the admitted (sorted) positions. Supported
// algorithms: AlgoMSA, AlgoMSAEpoch, AlgoHash, AlgoMCA, AlgoHeap,
// AlgoHeapDot, and AlgoHybrid (treated as MSA — a single row has no
// per-row scheme choice to make) for plain masks, and AlgoMSA/
// AlgoMSAEpoch/AlgoHash/AlgoHeap/AlgoHeapDot for complemented masks.
// The call is serial — a single row has no row-level parallelism to
// exploit (§3: the paper deliberately does not parallelize single-row
// formation). Accumulator and output scratch come from exec's
// worker-0 workspace, so a traversal loop (one masked SpVM per BFS
// level) allocates only the exact-size result vectors after warm-up.
// exec must not be used concurrently.
func MaskedSpVMWith[T any, S semiring.Semiring[T]](exec *Executor[T, S], mask []int32, u *sparse.Vector[T], b *sparse.CSR[T], opt Options) (*sparse.Vector[T], error) {
	if u.N != b.Rows {
		return nil, fmt.Errorf("core: vector has dimension %d but B has %d rows", u.N, b.Rows)
	}
	exec.ensureWorkers(1)
	ws := exec.worker(0)
	if opt.Complement {
		return maskedSpVMComplement(exec, ws, mask, u, b, opt)
	}
	outIdx, outVal := exec.scratch.slab(int64(len(mask)))
	var n int
	switch opt.Algorithm {
	case AlgoMSA, AlgoHybrid:
		n = pushRowNumeric[T](ws.MSA(b.Cols), mask, u.Idx, u.Val, b, outIdx, outVal)
	case AlgoMSAEpoch:
		n = pushRowNumeric[T](ws.MSAEpoch(b.Cols), mask, u.Idx, u.Val, b, outIdx, outVal)
	case AlgoHash:
		n = pushRowNumeric[T](ws.Hash(len(mask), opt.HashLoadFactor), mask, u.Idx, u.Val, b, outIdx, outVal)
	case AlgoMCA:
		n = mcaRowNumeric(ws.MCA(len(mask)), mask, u.Idx, u.Val, b, outIdx, outVal)
	case AlgoHeap:
		n = heapRowNumeric(exec.sr, ws.Heap(u.NNZ()), 1, mask, u.Idx, u.Val, b, outIdx, outVal)
	case AlgoHeapDot:
		n = heapRowNumeric(exec.sr, ws.Heap(u.NNZ()), heapInspectInf, mask, u.Idx, u.Val, b, outIdx, outVal)
	default:
		return nil, fmt.Errorf("core: MaskedSpVM does not support %v", opt.Algorithm)
	}
	return vectorFromScratch(b.Cols, outIdx, outVal, n), nil
}

// maskedSpVMComplement is the ¬m ⊙ (u⊺B) form.
func maskedSpVMComplement[T any, S semiring.Semiring[T]](exec *Executor[T, S], ws *workspace[T, S], mask []int32, u *sparse.Vector[T], b *sparse.CSR[T], opt Options) (*sparse.Vector[T], error) {
	bound := rowGenBound(u.Idx, b)
	if free := b.Cols - len(mask); bound > free {
		bound = free
	}
	outIdx, outVal := exec.scratch.slab(int64(bound))
	var n int
	switch opt.Algorithm {
	case AlgoMSA, AlgoMSAEpoch:
		n = pushRowNumericC[T](ws.MSAC(b.Cols), mask, u.Idx, u.Val, b, outIdx, outVal)
	case AlgoHash:
		n = pushRowNumericC[T](ws.HashC(opt.HashLoadFactor), mask, u.Idx, u.Val, b, outIdx, outVal)
	case AlgoHeap, AlgoHeapDot:
		n = heapRowNumericComplement(exec.sr, ws.Heap(u.NNZ()), mask, u.Idx, u.Val, b, outIdx, outVal)
	default:
		return nil, fmt.Errorf("core: complemented MaskedSpVM does not support %v", opt.Algorithm)
	}
	return vectorFromScratch(b.Cols, outIdx, outVal, n), nil
}

// vectorFromScratch copies the first n scratch entries into an
// exact-size result vector. The copy is what lets the scratch slab be
// pooled: results never alias executor memory, so a BFS loop can feed
// one level's output back in as the next level's frontier.
func vectorFromScratch[T any](n64 int, outIdx []int32, outVal []T, n int) *sparse.Vector[T] {
	out := sparse.NewVector[T](n64)
	out.Idx = append(make([]int32, 0, n), outIdx[:n]...)
	out.Val = append(make([]T, 0, n), outVal[:n]...)
	return out
}
