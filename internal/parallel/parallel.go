// Package parallel provides the shared-memory execution layer the masked
// SpGEMM kernels run on: a dynamically load-balanced row scheduler and
// parallel prefix sums.
//
// The paper parallelizes strictly across rows — "our algorithms do not
// parallelize the formation of individual rows as ... there is plenty of
// coarse-grained parallelism across rows" (§3). Dynamic scheduling
// addresses the load imbalance challenge (§2.2): every parallel loop here
// runs on one work-stealing scheduler (ForEachBlockStats), in which each
// worker starts on an equal share of the rows and idle workers steal
// half of a loaded worker's remainder, so a few heavy rows cannot
// serialize the computation.
package parallel

import (
	"runtime"
)

// DefaultGrain is the default number of rows claimed per scheduling
// step. Small enough to balance skewed degree distributions (R-MAT), big
// enough to amortize the atomic claim.
const DefaultGrain = 64

// Threads normalizes a requested thread count: values < 1 mean
// GOMAXPROCS.
func Threads(requested int) int {
	if requested < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// ForEachBlock runs fn over [0, n) split into blocks of at most grain
// items, dynamically scheduled over the given number of worker
// goroutines. fn receives the block bounds and the worker id in
// [0, threads), which kernels use to index per-thread scratch state.
// With threads == 1 everything runs on the calling goroutine, making
// single-threaded profiles clean and deterministic. For telemetry and
// cancellation use ForEachBlockStats (sched.go).
func ForEachBlock(n, threads, grain int, fn func(lo, hi, tid int)) {
	ForEachBlockStats(n, threads, grain, nil, nil, fn)
}

// ForEachRow runs fn once per index in [0, n) with dynamic block
// scheduling; a convenience wrapper over ForEachBlock.
func ForEachRow(n, threads, grain int, fn func(i, tid int)) {
	ForEachBlock(n, threads, grain, func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			fn(i, tid)
		}
	})
}

// PrefixSum replaces counts with its exclusive prefix sum in place and
// returns the total. counts must have one slot per row plus NO sentinel;
// after the call counts[i] is the starting offset of row i's output and
// the return value is the grand total.
func PrefixSum(counts []int64) int64 {
	var sum int64
	for i := range counts {
		c := counts[i]
		counts[i] = sum
		sum += c
	}
	return sum
}

// prefixCutoff is the slice length below which PrefixSumParallel runs
// the serial scan: the two extra passes and goroutine handoffs only pay
// off past tens of thousands of elements.
const prefixCutoff = 1 << 15

// prefixMinBlock floors the per-worker block size of the parallel
// prefix sum. Just above the cutoff, dividing n into threads*4 blocks
// would produce blocks so small that scheduling overhead dominates the
// adds; a floored block size derives the block count from n instead,
// using fewer blocks (and workers) on barely-parallel sizes.
const prefixMinBlock = 1 << 12

// PrefixSumParallel computes the same exclusive prefix sum with a
// two-pass block algorithm when the slice is large enough to benefit.
// Falls back to the serial scan below the cutoff.
func PrefixSumParallel(counts []int64, threads int) int64 {
	threads = Threads(threads)
	n := len(counts)
	if threads == 1 || n < prefixCutoff {
		return PrefixSum(counts)
	}
	nblk := threads * 4
	blk := (n + nblk - 1) / nblk
	if blk < prefixMinBlock {
		blk = prefixMinBlock
	}
	nblk = (n + blk - 1) / blk
	sums := make([]int64, nblk)
	ForEachRow(nblk, threads, 1, func(b, _ int) {
		lo, hi := b*blk, (b+1)*blk
		if hi > n {
			hi = n
		}
		var s int64
		for i := lo; i < hi; i++ {
			s += counts[i]
		}
		sums[b] = s
	})
	total := PrefixSum(sums)
	ForEachRow(nblk, threads, 1, func(b, _ int) {
		lo, hi := b*blk, (b+1)*blk
		if hi > n {
			hi = n
		}
		run := sums[b]
		for i := lo; i < hi; i++ {
			c := counts[i]
			counts[i] = run
			run += c
		}
	})
	return total
}
