package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// coverOnce drives a scheduling function over n indices and fails the
// test unless every index was visited exactly once, by non-empty
// blocks, and every reported tid was in range. Run under -race in CI, this is also the data-race
// check on the claim/steal paths.
func coverOnce(t *testing.T, n, threads int, run func(fn func(lo, hi, tid int))) {
	t.Helper()
	hits := make([]int32, n)
	run(func(lo, hi, tid int) {
		if tid < 0 || tid >= Threads(threads) {
			t.Errorf("tid %d out of range [0,%d)", tid, Threads(threads))
		}
		// Kernels index scratch by block, so an empty block must never
		// reach fn.
		if lo >= hi || lo < 0 || hi > n {
			t.Errorf("bad block [%d,%d) for n=%d", lo, hi, n)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times (n=%d threads=%d)", i, h, n, threads)
		}
	}
}

// TestForEachChunkedCoversAll is the exactly-once quick-check on the
// chunked (grain-sized, work-stealing) pass behind ForEachBlockStats,
// run with telemetry on: every index is visited once and every visit
// is counted as a claimed block.
func TestForEachChunkedCoversAll(t *testing.T) {
	f := func(nRaw uint16, threadsRaw, grainRaw uint8) bool {
		n := int(nRaw % 3000)
		threads := int(threadsRaw%8) + 1
		grain := int(grainRaw%100) + 1
		hits := make([]int32, n)
		var blocks atomic.Int64
		var st SchedStats
		st.Reset(threads)
		ForEachBlockStats(n, threads, grain, &st, nil, func(lo, hi, tid int) {
			blocks.Add(1)
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for _, h := range hits {
			if h != 1 {
				return false
			}
		}
		return int64(st.Claimed()) == blocks.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestForEachChunkedAdversarial covers the degenerate shapes on the
// chunked work-stealing pass: empty, fewer items than workers, n
// within one grain, a single mega-item, item counts that do not divide
// the worker count, and slices of an index space run back to back.
func TestForEachChunkedAdversarial(t *testing.T) {
	called := false
	ForEachBlockStats(0, 4, 16, nil, nil, func(lo, hi, tid int) { called = true })
	ForEachBlockStats(-3, 4, 16, nil, nil, func(lo, hi, tid int) { called = true })
	if called {
		t.Error("fn called for empty range")
	}
	for _, tc := range []struct{ n, threads, grain int }{
		{1, 8, 64},   // single mega-row: exactly one block
		{3, 8, 1},    // n < threads: some workers start empty and must steal or retire
		{64, 4, 64},  // n == grain: the serial path
		{7, 4, 2},    // uneven split
		{100, 3, 7},  // non-dividing grain
		{65, 2, 64},  // one block per worker plus a remainder
		{5000, 4, 1}, // many tiny blocks: heavy steal traffic
	} {
		coverOnce(t, tc.n, tc.threads, func(fn func(lo, hi, tid int)) {
			ForEachBlockStats(tc.n, tc.threads, tc.grain, nil, nil, fn)
		})
	}
	for _, tc := range []struct{ n, slice int }{
		{10, 3}, {999, 1000}, {1000, 1000}, {1001, 1000}, {4321, 100},
	} {
		coverOnce(t, tc.n, 4, func(fn func(lo, hi, tid int)) {
			forEachSliced(tc.n, tc.slice, 4, 8, nil, nil, fn)
		})
	}
}

// TestForEachPartitionSkipsEmpty pins that zero-width ranges never
// reach the callback (kernels index scratch by block and must not see
// lo == hi). With fewer items than workers the even seed split hands
// some workers an empty initial range; those, and the steals that
// follow, must not surface as empty blocks.
func TestForEachPartitionSkipsEmpty(t *testing.T) {
	for _, threads := range []int{1, 4, 8} {
		for _, n := range []int{1, 2, 3, 5, 7} {
			ForEachBlockStats(n, threads, 1, nil, nil, func(lo, hi, tid int) {
				if lo >= hi {
					t.Errorf("empty range [%d,%d) reached fn (n=%d threads=%d)", lo, hi, n, threads)
				}
			})
			forEachSliced(n, 2, threads, 1, nil, nil, func(lo, hi, tid int) {
				if lo >= hi {
					t.Errorf("empty sliced range [%d,%d) reached fn (n=%d threads=%d)", lo, hi, n, threads)
				}
			})
		}
	}
}

// TestForEachBlockSerialAllocFree pins the serial fast path: one worker
// runs inline with no coordination state, so a pass allocates nothing.
func TestForEachBlockSerialAllocFree(t *testing.T) {
	var st SchedStats
	st.Reset(1)
	sum := 0
	fn := func(lo, hi, tid int) { sum += hi - lo }
	if got := testing.AllocsPerRun(20, func() { ForEachBlockStats(1000, 1, 16, &st, nil, fn) }); got != 0 {
		t.Errorf("serial pass allocates %v objects, want 0", got)
	}
	if sum == 0 {
		t.Fatal("serial pass ran nothing")
	}
}

// TestSchedStatsAccounting checks the telemetry invariants: claimed
// blocks add up to the work handed out, the serial path never steals,
// busy time is recorded, and stats accumulate across passes.
func TestSchedStatsAccounting(t *testing.T) {
	work := func(lo, hi, tid int) {
		// Enough work for Busy to register on coarse clocks.
		s := 0
		for i := lo; i < hi; i++ {
			for k := 0; k < 2000; k++ {
				s += k ^ i
			}
		}
		_ = s
	}

	var st SchedStats
	st.Reset(1)
	ForEachBlockStats(256, 1, 16, &st, nil, work)
	if got, want := st.Claimed(), 16; got != want {
		t.Errorf("serial: claimed = %d, want %d", got, want)
	}
	if st.Stolen() != 0 {
		t.Errorf("serial: stolen = %d, want 0", st.Stolen())
	}
	if st.Busy() <= 0 {
		t.Error("serial: no busy time recorded")
	}

	// Parallel blocks can exceed n/grain: the even initial split and
	// half-range steals cut ranges at non-grain boundaries.
	st.Reset(2)
	ForEachBlockStats(256, 2, 16, &st, nil, work)
	if got := st.Claimed(); got < 16 || got > 16+8 {
		t.Errorf("parallel: claimed = %d, want ~16", got)
	}
	if st.Busy() <= 0 {
		t.Error("parallel: no busy time recorded")
	}

	// Accumulation across passes without Reset (a two-phase execution).
	before := st.Claimed()
	ForEachBlockStats(256, 2, 16, &st, nil, work)
	if st.Claimed() < before+16 {
		t.Errorf("stats did not accumulate: %d after second pass, want ≥ %d", st.Claimed(), before+16)
	}
}

// TestForEachBlockStealsUnderSkew plants all the cost in the lowest
// indices (one worker's initial range) — the skew stealing exists
// for. Steal timing depends on the host's real
// parallelism, so coverage is asserted strictly while the steal count
// is only reported.
func TestForEachBlockStealsUnderSkew(t *testing.T) {
	const n = 1 << 10
	var st SchedStats
	st.Reset(4)
	var total atomic.Int64
	ForEachBlockStats(n, 4, 8, &st, nil, func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			cost := 1
			if i < n/4 {
				cost = 400 // the first worker's quarter is 400× heavier
			}
			s := 0
			for k := 0; k < cost*100; k++ {
				s += k
			}
			total.Add(int64(s & 1))
		}
	})
	if got, min := st.Claimed(), n/8; got < min {
		t.Fatalf("claimed = %d, want ≥ %d", got, min)
	}
	t.Logf("steals under planted skew: %d, imbalance %.2f", st.Stolen(), st.Imbalance())
}

func TestSchedStatsImbalance(t *testing.T) {
	var st SchedStats
	if st.Imbalance() != 0 {
		t.Error("empty stats should report 0 imbalance")
	}
	// All four workers participated; one did all the work.
	st.Workers = []WorkerStats{
		{Busy: 4 * time.Millisecond, Claimed: 4},
		{Busy: 0, Claimed: 1}, {Busy: 0, Claimed: 1}, {Busy: 0, Claimed: 1},
	}
	if got := st.Imbalance(); got != 4 {
		t.Errorf("one-of-four imbalance = %v, want 4", got)
	}
	st.Workers = []WorkerStats{{Busy: time.Millisecond, Claimed: 2}, {Busy: time.Millisecond, Claimed: 2}}
	if got := st.Imbalance(); got != 1 {
		t.Errorf("balanced imbalance = %v, want 1", got)
	}
	// Serial fallback: only tid 0 ever received blocks. That is a
	// deliberate narrow pass, not imbalance.
	st.Workers = []WorkerStats{{Busy: 4 * time.Millisecond, Claimed: 4}, {}, {}, {}}
	if got := st.Imbalance(); got != 1 {
		t.Errorf("serial-fallback imbalance = %v, want 1", got)
	}
}

func TestSchedSummaryRecord(t *testing.T) {
	var sum SchedSummary
	var st SchedStats
	st.Workers = []WorkerStats{{Busy: 3 * time.Millisecond, Claimed: 5, Stolen: 2}, {Busy: time.Millisecond, Claimed: 3}}
	sum.Record(st)
	sum.Record(st)
	if sum.Passes != 2 || sum.BlocksClaimed != 16 || sum.BlocksStolen != 4 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.Busy != 8*time.Millisecond {
		t.Errorf("busy = %v, want 8ms", sum.Busy)
	}
	if sum.WorstImbalance != 1.5 {
		t.Errorf("worst imbalance = %v, want 1.5", sum.WorstImbalance)
	}
}

// TestPrefixSumParallelBoundary exercises the serial/parallel cutoff at
// length cutoff−1, cutoff, and cutoff+1 — the sizes where the old block
// math produced blocks far smaller than a scheduling step is worth.
func TestPrefixSumParallelBoundary(t *testing.T) {
	for _, n := range []int{prefixCutoff - 1, prefixCutoff, prefixCutoff + 1} {
		a := make([]int64, n)
		b := make([]int64, n)
		for i := range a {
			v := int64((i*31 + 7) % 13)
			a[i], b[i] = v, v
		}
		t1 := PrefixSum(a)
		t2 := PrefixSumParallel(b, 8)
		if t1 != t2 {
			t.Fatalf("n=%d: total %d != %d", n, t2, t1)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: prefix differs at %d", n, i)
			}
		}
	}
}

// TestPrefixBlockMath pins the satellite fix: just above the cutoff the
// block count must come from n/blk (few, large blocks), not from
// threads*4 (many undersized blocks).
func TestPrefixBlockMath(t *testing.T) {
	n := prefixCutoff + 1
	threads := 8
	nblk := threads * 4
	blk := (n + nblk - 1) / nblk
	if blk < prefixMinBlock {
		blk = prefixMinBlock
	}
	nblk = (n + blk - 1) / blk
	if blk < prefixMinBlock {
		t.Fatalf("block size %d below floor %d", blk, prefixMinBlock)
	}
	if nblk > (n+prefixMinBlock-1)/prefixMinBlock {
		t.Fatalf("nblk %d exceeds what n=%d supports at floor %d", nblk, n, prefixMinBlock)
	}
}
