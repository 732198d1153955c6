// Package calibrate fits the per-family cost-model coefficients on
// the local host (DESIGN.md §14). The §10 RowCost estimators are
// structural constants tuned on one machine; the paper's own §5
// family crossovers shift with cache geometry, so a model that is
// right about *shape* can still be wrong about *scale* per family —
// and scale errors move the Hybrid crossovers. The startup micro-benchmark runs each accumulator
// family over small synthetic workloads, regresses the measured wall
// times against the uncalibrated model's predicted costs (least
// squares through the origin), and returns one multiplicative
// coefficient per family, normalized so MSA stays 1.0 — selection
// compares costs, so only relative scale matters.
package calibrate

import (
	"time"

	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
)

// Defaults for Config's zero values.
const (
	// DefaultN is the workload dimension of the micro-benchmark
	// matrices: big enough that per-row model terms dominate fixed
	// overheads, small enough that the whole fit stays in the
	// DefaultMaxDuration envelope.
	DefaultN = 2048
	// DefaultReps is the timed repetitions per workload; the fit uses
	// the best (smallest) time, the standard noise floor estimator.
	DefaultReps = 3
	// DefaultMaxDuration bounds the whole fit's wall time. The budget
	// is checked between timed workloads: families not reached before
	// it expires keep coefficient 1.0 (the literal relative scale).
	DefaultMaxDuration = 2 * time.Second
	// DefaultSeed seeds the synthetic workload generators.
	DefaultSeed = 0x5eed
)

// defaultDegrees are the ER degrees swept per family: two operating
// points per family give the through-origin fit a slope, not just an
// offset.
var defaultDegrees = []int{4, 16}

// Config tunes Fit. The zero value means every default.
type Config struct {
	// N is the workload dimension; <= 0 means DefaultN.
	N int
	// Degrees are the ER degrees swept per family; empty means
	// {4, 16}.
	Degrees []int
	// Reps is the timed repetitions per workload (best-of); <= 0
	// means DefaultReps.
	Reps int
	// MaxDuration bounds the fit's wall time; <= 0 means
	// DefaultMaxDuration.
	MaxDuration time.Duration
	// Seed seeds the synthetic generators; 0 means DefaultSeed.
	Seed uint64
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = DefaultN
	}
	if len(c.Degrees) == 0 {
		c.Degrees = defaultDegrees
	}
	if c.Reps <= 0 {
		c.Reps = DefaultReps
	}
	if c.MaxDuration <= 0 {
		c.MaxDuration = DefaultMaxDuration
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c
}

// Result is one completed fit.
type Result struct {
	// Coeffs is the fitted coefficient array, normalized so FamMSA is
	// 1.0; families the wall budget did not reach (or whose fit
	// degenerated) hold 1.0, the literal relative scale. The zero
	// value — returned only when even MSA could not be fitted — means
	// the host stays uncalibrated.
	Coeffs core.CostCoeffs
	// Elapsed is the fit's wall time.
	Elapsed time.Duration
	// Samples counts the workloads fitted per family.
	Samples [core.NumFamilies]int
}

// Fit runs the startup micro-benchmark and returns the fitted
// coefficients. It is synchronous and bounded by cfg.MaxDuration;
// sessions run it once at construction, off the request path.
func Fit(cfg Config) Result {
	cfg = cfg.withDefaults()
	start := time.Now()
	deadline := start.Add(cfg.MaxDuration)
	sr := semiring.PlusTimes[float64]{}

	var res Result
	var raw [core.NumFamilies]float64
	for f := core.Family(0); f < core.NumFamilies; f++ {
		var xs, ts []float64
		for wi, degree := range cfg.Degrees {
			if time.Now().After(deadline) {
				break
			}
			a := gen.ErdosRenyi(cfg.N, degree, cfg.Seed+uint64(wi)*7919)
			// Self-mask (the graph workloads' C = L ⊙ (L·L) shape):
			// every family prices the same structural inputs.
			mask := &a.Pattern
			opt := core.Options{
				Algorithm:      core.AlgoHybrid,
				HybridFamilies: core.Families(f),
				Threads:        1,
			}
			plan, err := core.NewPlan[float64](sr, mask, a, a, opt, nil)
			if err != nil {
				continue
			}
			best := time.Duration(-1)
			for r := 0; r < cfg.Reps; r++ {
				t0 := time.Now()
				if _, err := plan.Execute(a, a); err != nil {
					best = -1
					break
				}
				if d := time.Since(t0); best < 0 || d < best {
					best = d
				}
				if time.Now().After(deadline) {
					break
				}
			}
			if best < 0 {
				continue
			}
			x := core.PredictedRowCost(mask, a, a, f, core.Options{})
			if x <= 0 {
				continue
			}
			xs = append(xs, x)
			ts = append(ts, float64(best.Nanoseconds()))
		}
		res.Samples[f] = len(xs)
		raw[f] = fitScale(xs, ts)
	}
	res.Elapsed = time.Since(start)

	// Normalize by MSA: selection compares families, so only relative
	// scale matters, and keeping MSA at exactly 1.0 makes "calibrated
	// but every family measured proportional to its model" an identity.
	msa := raw[core.FamMSA]
	if msa <= 0 {
		return Result{Elapsed: res.Elapsed, Samples: res.Samples}
	}
	for f := range res.Coeffs {
		if raw[f] > 0 {
			res.Coeffs[f] = raw[f] / msa
		} else {
			res.Coeffs[f] = 1
		}
	}
	return res
}

// fitScale fits t ≈ c·x through the origin by least squares:
// c = Σxᵢtᵢ / Σxᵢ². Returns 0 for degenerate inputs (no samples, or
// a non-positive fit), which Fit treats as "unfitted".
func fitScale(x, t []float64) float64 {
	if len(x) == 0 || len(x) != len(t) {
		return 0
	}
	var xt, xx float64
	for i := range x {
		xt += x[i] * t[i]
		xx += x[i] * x[i]
	}
	if xx <= 0 || xt <= 0 {
		return 0
	}
	return xt / xx
}
