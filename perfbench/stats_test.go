package main

import (
	"math"
	"testing"
)

func TestTailPercentileTenBeyond(t *testing.T) {
	cases := []struct {
		n, capPct, want int
	}{
		// p99 of 1000 is rank 990: exactly ten samples beyond.
		{1000, 99, 99},
		// One sample short: p99 would leave nine beyond, p95 leaves 50.
		{999, 99, 95},
		// p90 of 100 is rank 90: ten beyond.
		{100, 90, 90},
		{99, 90, 75},
		// The cap holds even when the sample supports more.
		{5000, 90, 90},
		// A 280-sample run supports p95, but a p90 cap reports p90.
		{280, 90, 90},
		// 16 samples support no tail: the median is the floor.
		{16, 99, 50},
		{0, 99, 50},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.capPct); got != c.want {
			t.Errorf("tailPercentile(%d, cap %d) = p%d, want p%d", c.n, c.capPct, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 280)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	// ceil(280·0.9) = 252 exactly; a float computation rounds 252.00000000000003 up.
	v, beyond := percentile(sorted, 90)
	if v != 252 || beyond != 28 {
		t.Fatalf("p90 of 1..280 = %v with %d beyond, want 252 with 28", v, beyond)
	}
	v, beyond = percentile(sorted[:1], 99)
	if v != 1 || beyond != 0 {
		t.Fatalf("p99 of one sample = %v with %d beyond, want 1 with 0", v, beyond)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python 3: statistics.quantiles(values, n=4).
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 2, 10, 7, 5, 4, 9, 8, 6}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1.5, 2.5}, [3]float64{1.25, 2.0, 2.75}},
		{[]float64{4, 1, 2}, [3]float64{1, 2, 4}},
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.95, 1.02, 1.07}, [3]float64{0.95, 1.02, 1.1}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.in)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		// [10,40) and [30,60) overlap on [30,40): covered is 50, not 60.
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		// A child nested inside another adds nothing.
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		// Replayed children cover more than the parent lasted: clamp at 0.
		{"exceeding", []interval{{200, 350}}, 0},
		{"empty child", []interval{{40, 40}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestFailRatioBase(t *testing.T) {
	// The base is attempted operations, failures included: 5 failures
	// out of 100 started is 0.05, not 5/95.
	if got := failRatio(100, 5); got != 0.05 {
		t.Fatalf("failRatio(100, 5) = %v, want 0.05", got)
	}
	if got := failRatio(0, 0); got != 0 {
		t.Fatalf("failRatio(0, 0) = %v, want 0", got)
	}
	if got := failRatio(7, 7); got != 1 {
		t.Fatalf("failRatio(7, 7) = %v, want 1", got)
	}
}

func TestCPUMsPerOpFromProcStat(t *testing.T) {
	// A command name with spaces and a parenthesis must not shift the
	// fields; utime (field 14) = 250, stime (field 15) = 50.
	before := []byte("4242 (mspgemm (serve) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 9 0 100 1000 200 18446744073709551615\n")
	// 1.2 s later the process has 370 + 80 ticks.
	after := []byte("4242 (mspgemm (serve) x) S 1 4242 4242 0 -1 4194560 180 0 0 0 370 80 0 0 20 0 9 0 100 1000 200 18446744073709551615\n")
	b, err := parseProcStat(before)
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseProcStat(after)
	if err != nil {
		t.Fatal(err)
	}
	if b != 300 || a != 450 {
		t.Fatalf("ticks = %d, %d, want 300, 450", b, a)
	}
	// 150 ticks = 1500 ms of CPU over 60 operations = 25 ms each.
	if got := cpuMsPerOp(b, a, 60); got != 25 {
		t.Fatalf("cpuMsPerOp = %v, want 25", got)
	}
	if got := cpuMsPerOp(b, a, 0); got != 0 {
		t.Fatalf("cpuMsPerOp with no operations = %v, want 0", got)
	}
	if _, err := parseProcStat([]byte("4242 (trunc) S 1 2")); err == nil {
		t.Fatal("truncated stat line parsed without error")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := []byte("Name:\tmspgemm-serve\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n")
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if want := 123456 * 1024 / 1e6; got != want {
		t.Fatalf("VmHWM = %v MB, want %v", got, want)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Fatal("status without VmHWM parsed without error")
	}
}
