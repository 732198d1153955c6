package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachBlockCoversAll(t *testing.T) {
	f := func(nRaw uint16, threadsRaw, grainRaw uint8) bool {
		n := int(nRaw % 3000)
		threads := int(threadsRaw%8) + 1
		grain := int(grainRaw%100) + 1
		hits := make([]int32, n)
		ForEachBlock(n, threads, grain, func(lo, hi, tid int) {
			if tid < 0 || tid >= threads {
				panic("tid out of range")
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for _, h := range hits {
			if h != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestForEachBlockEmpty(t *testing.T) {
	called := false
	ForEachBlock(0, 4, 16, func(lo, hi, tid int) { called = true })
	if called {
		t.Error("fn called for n=0")
	}
	ForEachBlock(-5, 4, 16, func(lo, hi, tid int) { called = true })
	if called {
		t.Error("fn called for negative n")
	}
}

func TestForEachRow(t *testing.T) {
	var sum atomic.Int64
	ForEachRow(100, 3, 7, func(i, _ int) {
		sum.Add(int64(i))
	})
	if sum.Load() != 4950 {
		t.Errorf("sum = %d, want 4950", sum.Load())
	}
}

func TestThreads(t *testing.T) {
	if Threads(0) != runtime.GOMAXPROCS(0) {
		t.Error("Threads(0) should be GOMAXPROCS")
	}
	if Threads(-3) != runtime.GOMAXPROCS(0) {
		t.Error("Threads(negative) should be GOMAXPROCS")
	}
	if Threads(5) != 5 {
		t.Error("Threads(5) should be 5")
	}
}

func TestPrefixSum(t *testing.T) {
	counts := []int64{3, 0, 2, 5, 0}
	total := PrefixSum(counts)
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
	want := []int64{0, 3, 3, 5, 10}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if PrefixSum(nil) != 0 {
		t.Error("empty prefix sum should be 0")
	}
}

func TestPrefixSumParallelMatchesSerial(t *testing.T) {
	f := func(seed uint16) bool {
		n := 40000 + int(seed)
		a := make([]int64, n)
		b := make([]int64, n)
		for i := range a {
			v := int64((i*2654435761 + int(seed)) % 97)
			a[i], b[i] = v, v
		}
		t1 := PrefixSum(a)
		t2 := PrefixSumParallel(b, 4)
		if t1 != t2 {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestForEachBlockSingleThreadOrdering(t *testing.T) {
	// threads == 1 must run inline, in order (kernels rely on this for
	// clean profiling).
	var order []int
	ForEachBlock(10, 1, 3, func(lo, hi, tid int) {
		if tid != 0 {
			t.Fatal("tid != 0 in single-thread mode")
		}
		order = append(order, lo)
	})
	want := []int{0, 3, 6, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
