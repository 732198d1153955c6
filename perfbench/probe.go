package main

import (
	"sync/atomic"
	"time"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// Probe repetition counts. Each configuration warms up before it is
// measured, so no timing follows a different configuration in the same
// process directly: the same execute timed 2× apart depending on what
// ran before it.
const (
	probeWarm     = 3
	probeMeasure  = 7
	probeBuilds   = 5
	probeFPRepeat = 7
)

// probeResult is what the core and parallel layers measured on one
// masked product.
type probeResult struct {
	buildMs   float64 // median NewPlan time
	execMs    float64 // median execute at the default thread count
	exec1Ms   float64 // median execute at one thread
	flops     int64   // FlopsEstimate of the product
	threads   int     // the default thread count
	imbalance float64 // median SchedStats imbalance at the default count
	busyShare float64 // median busy time over threads × execute time
	samples   int
}

// probeProduct times plan construction and execution of mask ⊙ (a·b)
// through the core layer's public functions with the program's default
// options, then again at one thread.
func probeProduct[T any, S semiring.Semiring[T]](sr S, mask *sparse.Pattern, a, b *sparse.CSR[T]) (probeResult, error) {
	var r probeResult
	exec := core.NewExecutor[T](sr)
	builds := make([]float64, 0, probeBuilds)
	var plan *core.Plan[T, S]
	for i := 0; i < 1+probeBuilds; i++ {
		start := time.Now()
		p, err := core.NewPlan(sr, mask, a, b, core.Options{}, exec)
		if err != nil {
			return r, err
		}
		if i > 0 {
			builds = append(builds, msSince(start))
		}
		plan = p
	}
	r.buildMs = median(builds)
	r.flops = plan.FlopsEstimate(a, b)
	r.threads = plan.Options().Threads

	eo := core.ExecOptions{CollectSchedStats: true}
	var times, imb, busy []float64
	for i := 0; i < probeWarm+probeMeasure; i++ {
		start := time.Now()
		if _, err := plan.ExecuteOnOpts(exec, a, b, eo); err != nil {
			return r, err
		}
		wall := time.Since(start)
		if i < probeWarm {
			continue
		}
		st := exec.SchedStats()
		times = append(times, float64(wall.Nanoseconds())/1e6)
		imb = append(imb, st.Imbalance())
		busy = append(busy, float64(st.Busy())/(float64(r.threads)*float64(wall)))
	}
	r.execMs, r.imbalance, r.busyShare, r.samples = median(times), median(imb), median(busy), len(times)

	exec1 := core.NewExecutor[T](sr)
	plan1, err := core.NewPlan(sr, mask, a, b, core.Options{Threads: 1}, exec1)
	if err != nil {
		return r, err
	}
	times = times[:0]
	for i := 0; i < probeWarm+probeMeasure; i++ {
		start := time.Now()
		if _, err := plan1.ExecuteOnOpts(exec1, a, b, eo); err != nil {
			return r, err
		}
		if i >= probeWarm {
			times = append(times, msSince(start))
		}
	}
	r.exec1Ms = median(times)
	return r, nil
}

// combine sums two products' probes into one: times and flops add, the
// ratios are weighted by execute time.
func (r probeResult) combine(o probeResult) probeResult {
	w1, w2 := r.execMs, o.execMs
	return probeResult{
		buildMs:   r.buildMs + o.buildMs,
		execMs:    r.execMs + o.execMs,
		exec1Ms:   r.exec1Ms + o.exec1Ms,
		flops:     r.flops + o.flops,
		threads:   r.threads,
		imbalance: (r.imbalance*w1 + o.imbalance*w2) / (w1 + w2),
		busyShare: (r.busyShare*w1 + o.busyShare*w2) / (w1 + w2),
		samples:   min(r.samples, o.samples),
	}
}

// report sets the core and parallel metrics from a probe.
func (r probeResult) report(o *outcome) {
	o.set("core.plan_build_ms", r.buildMs, probeBuilds)
	o.set("core.execute_ms", r.execMs, r.samples)
	o.set("core.flops", float64(r.flops), 1)
	o.set("core.mflops_per_s", float64(r.flops)/(r.execMs*1e3), r.samples)
	o.set("parallel.speedup_2t", r.exec1Ms/r.execMs, r.samples)
	o.set("parallel.imbalance", r.imbalance, r.samples)
	o.set("parallel.busy_share", r.busyShare, r.samples)
	o.meta["probe_threads"] = r.threads
}

// probeFingerprint times the structural fingerprint of p, the hashing
// a plan-cache lookup does per key.
func probeFingerprint(p *sparse.Pattern) float64 {
	times := make([]float64, 0, probeFPRepeat)
	for i := 0; i < 1+probeFPRepeat; i++ {
		start := time.Now()
		fpSink.Add(p.Fingerprint())
		if i > 0 {
			times = append(times, msSince(start))
		}
	}
	return median(times)
}

// fpSink keeps fingerprint results live; replays add to it from
// several clients at once.
var fpSink atomic.Uint64

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
