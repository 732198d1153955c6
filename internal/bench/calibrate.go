package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"maskedspgemm/internal/calibrate"
	"maskedspgemm/internal/core"
	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/semiring"
)

// The calibration experiment (DESIGN.md §14): does binding Hybrid
// plans under host-fitted cost coefficients help, and — the safety
// side the CI gate actually asserts — does it ever hurt? Each workload
// is planned twice, once under the literal cost models (static) and
// once under coefficients fitted by a real startup micro-benchmark
// (calibrated), and the two plans' executions are timed interleaved
// (see RunBitmapMix for why). Uniform ER controls are the do-no-harm
// set: a correct fit barely moves their binding, so calibrated must
// stay within noise of static there. The sweep workloads are where a
// scale error in the literal models would move the family crossovers;
// when the fit shifts their binding, the point records it so the
// trajectory can watch whether calibration wins follow.

// CalibrateBenchConfig configures RunCalibrate.
type CalibrateBenchConfig struct {
	// Scale sets the workload dimension (2^Scale rows).
	Scale int
	// EdgeFactor is edges per vertex for the generated inputs.
	EdgeFactor int
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// Reps is timing repetitions per point (best-of, interleaved).
	Reps int
	// Seed drives the generators.
	Seed uint64
	// FitDuration bounds the startup fit (0 = calibrate's default).
	FitDuration time.Duration
}

// DefaultCalibrateBenchConfig returns the CI-scale configuration.
func DefaultCalibrateBenchConfig() CalibrateBenchConfig {
	return CalibrateBenchConfig{Scale: 12, EdgeFactor: 8, Reps: 5, Seed: 21}
}

// CalibratePoint is one workload's static-vs-calibrated measurement.
type CalibratePoint struct {
	// Workload names the input class; "er-uniform*" points are the
	// do-no-harm controls the CI gate asserts.
	Workload string `json:"workload"`
	// Control marks the uniform controls the gate bounds.
	Control bool `json:"control"`
	// StaticSeconds is the best-of-reps time under the literal models.
	StaticSeconds float64 `json:"static_seconds"`
	// CalibratedSeconds is the best-of-reps time under the fitted
	// coefficients.
	CalibratedSeconds float64 `json:"calibrated_seconds"`
	// Ratio is CalibratedSeconds / StaticSeconds: ≤ 1 means calibration
	// helped (or was free), the gate bounds how far above 1 controls
	// may drift.
	Ratio float64 `json:"ratio"`
	// BindingChanged reports whether the fitted coefficients moved any
	// row to a different family.
	BindingChanged bool `json:"binding_changed"`
	// StaticRows is the per-family row mix of the literal-model plan.
	StaticRows map[string]int `json:"static_rows,omitempty"`
	// CalibratedRows is the per-family row mix of the calibrated plan.
	CalibratedRows map[string]int `json:"calibrated_rows,omitempty"`
}

// calibrateWorkloads builds the experiment inputs: two uniform ER
// controls (sparse and moderate masks, where the binding is near
// degenerate and calibration must be free) and the banded-mask sweeps
// over ER and R-MAT structure, the shapes whose mixed bindings the
// coefficients can actually move.
func calibrateWorkloads(cfg CalibrateBenchConfig) []mixWorkload {
	n := 1 << cfg.Scale
	er := gen.Symmetrize(gen.ErdosRenyi(n, cfg.EdgeFactor, cfg.Seed))
	rmat := gen.RMATSymmetric(gen.RMATConfig{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed + 1})
	return []mixWorkload{
		{"er-uniform-self", er.PatternView(), er, er},
		{"er-uniform-sparse", gen.ErdosRenyiPattern(n, 2, cfg.Seed+2), er, er},
		{"er-sweep", BandedMask(n, SweepDensities, cfg.Seed+3), er, er},
		{"rmat-sweep", BandedMask(n, SweepDensities, cfg.Seed+4), rmat, rmat},
	}
}

// familyRowMap renders a Hybrid plan's row mix.
func familyRowMap(counts [core.NumFamilies]int) map[string]int {
	out := make(map[string]int)
	for f, c := range counts {
		if c > 0 {
			out[core.Family(f).String()] = c
		}
	}
	return out
}

// RunCalibrate fits coefficients on this host, then times static vs
// calibrated Hybrid plans on each workload, reps interleaved so
// ambient load lands on both sides equally.
func RunCalibrate(cfg CalibrateBenchConfig) ([]CalibratePoint, core.CostCoeffs, error) {
	sr := semiring.PlusTimes[float64]{}
	fit := calibrate.Fit(calibrate.Config{MaxDuration: cfg.FitDuration})
	if fit.Coeffs.IsZero() {
		return nil, fit.Coeffs, fmt.Errorf("calibration fit produced no coefficients")
	}
	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	var pts []CalibratePoint
	for _, wl := range calibrateWorkloads(cfg) {
		statOpt := core.Options{Algorithm: core.AlgoHybrid, Threads: cfg.Threads, ReuseOutput: true}
		calOpt := statOpt
		calOpt.CostCoeffs = fit.Coeffs
		statPlan, err := core.NewPlan(sr, wl.mask, wl.a, wl.b, statOpt, nil)
		if err != nil {
			return nil, fit.Coeffs, err
		}
		calPlan, err := core.NewPlan(sr, wl.mask, wl.a, wl.b, calOpt, nil)
		if err != nil {
			return nil, fit.Coeffs, err
		}
		plans := []*core.Plan[float64, semiring.PlusTimes[float64]]{statPlan, calPlan}
		best := [2]float64{}
		for rep := 0; rep < reps; rep++ {
			for i, plan := range plans {
				d, err := TimeBest(1, func() error {
					_, err := plan.Execute(wl.a, wl.b)
					return err
				})
				if err != nil {
					return nil, fit.Coeffs, err
				}
				if rep == 0 || d.Seconds() < best[i] {
					best[i] = d.Seconds()
				}
			}
		}
		pt := CalibratePoint{
			Workload:          wl.name,
			Control:           len(wl.name) >= 10 && wl.name[:10] == "er-uniform",
			StaticSeconds:     best[0],
			CalibratedSeconds: best[1],
			StaticRows:        familyRowMap(statPlan.FamilyRows()),
			CalibratedRows:    familyRowMap(calPlan.FamilyRows()),
		}
		if pt.StaticSeconds > 0 {
			pt.Ratio = pt.CalibratedSeconds / pt.StaticSeconds
		}
		pt.BindingChanged = fmt.Sprint(pt.StaticRows) != fmt.Sprint(pt.CalibratedRows)
		pts = append(pts, pt)
	}
	return pts, fit.Coeffs, nil
}

// WriteCalibrate renders the experiment as an aligned table.
func WriteCalibrate(w io.Writer, cfg CalibrateBenchConfig, coeffs core.CostCoeffs, pts []CalibratePoint) {
	fmt.Fprintf(w, "Cost-model calibration experiment — scale %d, ef %d\n", cfg.Scale, cfg.EdgeFactor)
	fmt.Fprintf(w, "fitted coefficients:")
	for f := core.Family(0); f < core.NumFamilies; f++ {
		fmt.Fprintf(w, " %s=%.3f", f, coeffs[f])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-18s %-8s %12s %12s %7s %s\n", "workload", "control", "static-s", "calibr-s", "ratio", "binding")
	for _, p := range pts {
		binding := "unchanged"
		if p.BindingChanged {
			binding = "CHANGED"
		}
		fmt.Fprintf(w, "%-18s %-8v %12.6f %12.6f %6.3fx %s\n", p.Workload, p.Control, p.StaticSeconds, p.CalibratedSeconds, p.Ratio, binding)
	}
}

// calibrateJSONDoc is the BENCH_calibrate.json envelope.
type calibrateJSONDoc struct {
	// Config echoes the experiment configuration.
	Config CalibrateBenchConfig `json:"config"`
	// GOMAXPROCS records the host parallelism.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Coefficients maps family name → fitted coefficient.
	Coefficients map[string]float64 `json:"coefficients"`
	// Points holds the measurements.
	Points []CalibratePoint `json:"points"`
}

// WriteCalibrateJSON emits the experiment as the BENCH_calibrate.json
// document consumed by the perf trajectory and the CI gate: every
// control point's ratio must stay under the gate bound (calibration
// does no harm where it has nothing to fix).
func WriteCalibrateJSON(w io.Writer, cfg CalibrateBenchConfig, coeffs core.CostCoeffs, pts []CalibratePoint) error {
	cm := make(map[string]float64, core.NumFamilies)
	for f := core.Family(0); f < core.NumFamilies; f++ {
		cm[f.String()] = coeffs[f]
	}
	doc := calibrateJSONDoc{Config: cfg, GOMAXPROCS: runtime.GOMAXPROCS(0), Coefficients: cm, Points: pts}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
