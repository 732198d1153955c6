package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// The harness's own arithmetic: percentiles, quartiles, self time,
// failure ratio and CPU accounting. Every function here is covered by
// stats_test.go.

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is one or two outliers, not a tail.
const minBeyond = 10

// percentileLadder lists the percentiles a tail may be reported at,
// highest first.
var percentileLadder = []int{99, 95, 90, 75, 50}

// rank returns the 1-based nearest rank of percentile pct among n
// samples: ceil(n·pct/100), computed in integers so that p90 of 280
// samples is rank 252, not a float-rounded 253.
func rank(n, pct int) int {
	r := (n*pct + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank value at pct of sorted samples
// and how many samples lie strictly beyond it.
func percentile(sorted []float64, pct int) (value float64, beyond int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	r := rank(len(sorted), pct)
	return sorted[r-1], len(sorted) - r
}

// tailPercentile returns the highest percentile, at most capPct, that
// keeps at least minBeyond of n samples beyond it. A workload fixes its
// cap at the percentile its run length supports, so the reported tail
// keeps one meaning across runs and commits; the ladder only steps down
// when a run collects fewer samples than that. The median is the floor:
// when even it has fewer than minBeyond samples beyond, the sample
// supports no tail and the median is reported.
func tailPercentile(n, capPct int) int {
	for _, pct := range percentileLadder {
		if pct > capPct {
			continue
		}
		if n-rank(n, pct) >= minBeyond {
			return pct
		}
	}
	return 50
}

// quartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) computes
// them (its default "exclusive" method), so the spread this harness
// prints is the spread an outside check computes from the same runs.
// One value is its own quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var cut [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		cut[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return cut[0], cut[1], cut[2]
}

// median returns the middle value (the mean of the two middle values
// for an even count).
func median(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// interval is a half-open time interval [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// coveredLen returns the total length of the union of ivs: time that
// several intervals cover at once counts once.
func coveredLen(ivs []interval) int64 {
	d := append([]interval(nil), ivs...)
	sort.Slice(d, func(i, j int) bool { return d[i].start < d[j].start })
	var total int64
	var cur interval
	open := false
	for _, iv := range d {
		if iv.end <= iv.start {
			continue
		}
		switch {
		case !open:
			cur, open = iv, true
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if open {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the time its children cover,
// never below zero. Children that overlap each other are counted once.
func selfTime(parent interval, children []interval) int64 {
	return max(0, parent.end-parent.start-coveredLen(children))
}

// failRatio is failed operations over attempted operations. Its base
// is every operation the load generator started, failed ones included;
// an operation is either completed-and-correct or failed.
func failRatio(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// userHZ is the unit of the CPU-time fields of /proc/<pid>/stat. The
// kernel reports them in USER_HZ ticks, fixed at 100 by the Linux ABI
// whatever the kernel's internal tick rate.
const userHZ = 100

// cpuTicks is the utime+stime a /proc/<pid>/stat line reports, in
// USER_HZ ticks.
type cpuTicks uint64

// parseProcStat extracts utime+stime from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesized and may
// itself hold spaces and parentheses, so fields are counted from the
// last ')'.
func parseProcStat(data []byte) (cpuTicks, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command-name terminator")
	}
	// rest[0] is field 3 (state); utime and stime are fields 14 and 15.
	rest := bytes.Fields(data[i+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(rest))
	}
	utime, err := strconv.ParseUint(string(rest[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(string(rest[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return cpuTicks(utime + stime), nil
}

// cpuMsPerOp converts the CPU ticks a process spent between two stat
// snapshots into milliseconds per completed operation.
func cpuMsPerOp(before, after cpuTicks, ops int) float64 {
	if ops == 0 || after < before {
		return 0
	}
	return float64(after-before) * 1000 / userHZ / float64(ops)
}

// parseVmHWM extracts the resident high-water mark, in MB (10⁶ bytes),
// from the contents of /proc/<pid>/status.
func parseVmHWM(status []byte) (float64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmHWM: %w", err)
		}
		return float64(kb) * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}
