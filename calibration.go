package maskedspgemm

import (
	"fmt"
	"time"

	"maskedspgemm/internal/calibrate"
	"maskedspgemm/internal/core"
)

// CalibrationMode selects how a Session uses the fitted cost-model
// coefficients (DESIGN.md §14).
type CalibrationMode int

// Calibration modes.
const (
	// CalibrateOff disables calibration entirely: no startup fit, no
	// online feedback. Plans are keyed and bound exactly as the literal
	// cost models dictate — bit-for-bit the pre-calibration behaviour.
	CalibrateOff CalibrationMode = iota
	// CalibrateStartup fits coefficients once at session construction
	// and injects them into every request's plan options: plans are
	// bound calibrated from their first planning. The fit runs off the
	// request path, bounded by CalibrationConfig.MaxDuration.
	CalibrateStartup
	// CalibrateOnline fits at startup like CalibrateStartup, but keeps
	// plan keys literal: instead of pre-injecting, every execution
	// feeds measured imbalance and wall time back into the plan cache,
	// and a Hybrid plan whose imbalance EWMA stays over threshold for
	// K consecutive hits has its per-row selection re-run with the
	// calibrated coefficients in the background, swapping the cache
	// entry atomically.
	CalibrateOnline
)

// String renders the flag spelling: "off", "startup", "online".
func (m CalibrationMode) String() string {
	switch m {
	case CalibrateStartup:
		return "startup"
	case CalibrateOnline:
		return "online"
	default:
		return "off"
	}
}

// ParseCalibrationMode parses the -calibrate flag spellings "off",
// "startup", "online".
func ParseCalibrationMode(s string) (CalibrationMode, error) {
	switch s {
	case "off", "":
		return CalibrateOff, nil
	case "startup":
		return CalibrateStartup, nil
	case "online":
		return CalibrateOnline, nil
	}
	return CalibrateOff, fmt.Errorf("maskedspgemm: unknown calibration mode %q (want off, startup, or online)", s)
}

// CalibrationConfig tunes WithCalibration. The zero value of every
// field means its default.
type CalibrationConfig struct {
	// Mode selects off, startup, or online (default off).
	Mode CalibrationMode
	// MaxDuration bounds the startup fit's wall time (default
	// calibrate.DefaultMaxDuration, 2s). The fit runs once, during
	// NewSession, never on the request path.
	MaxDuration time.Duration
	// ImbalanceThreshold is the measured-imbalance EWMA level above
	// which an online session considers a plan misbehaving (default
	// core.DefaultImbalanceThreshold). Online mode only.
	ImbalanceThreshold float64
	// ConsecutiveHits is K: how many consecutive over-threshold
	// observations trigger a background re-bind (default
	// core.DefaultReplanHits). Online mode only.
	ConsecutiveHits int
}

// WithCalibration enables cost-model calibration for the session. See
// CalibrationMode for what each mode does; the default (no option) is
// CalibrateOff.
func WithCalibration(cfg CalibrationConfig) SessionOption {
	return func(c *sessionConfig) { c.calib = cfg }
}

// CalibrationStats reports a session's calibration state (see
// SessionStats): the mode, the fitted per-family coefficients, the
// startup fit's wall time, and — online mode — how many plans were
// re-bound and the drift records of the plans still under observation.
type CalibrationStats struct {
	// Mode is the configured mode ("off", "startup", "online").
	Mode string
	// Coefficients maps family name → fitted coefficient (MSA is the
	// 1.0 anchor). Empty when uncalibrated.
	Coefficients map[string]float64
	// FitNanos is the startup fit's wall time; zero when no fit ran.
	FitNanos int64
	// Replans counts background plan re-binds since session start.
	Replans uint64
	// Drift lists the per-plan feedback records (online mode).
	Drift []core.PlanDrift
}

// calibration is the session-side state: the mode and the fitted
// coefficients (zero when the fit was skipped or failed).
type calibration struct {
	mode     CalibrationMode
	coeffs   core.CostCoeffs
	fitNanos int64
}

// setup runs the startup fit (modes startup and online) and, for
// online mode, arms the plan cache's feedback loop.
func (s *Session) setupCalibration(cfg CalibrationConfig) {
	s.calib.mode = cfg.Mode
	if cfg.Mode == CalibrateOff {
		return
	}
	res := calibrate.Fit(calibrate.Config{MaxDuration: cfg.MaxDuration})
	s.calib.coeffs = res.Coeffs
	s.calib.fitNanos = res.Elapsed.Nanoseconds()
	if cfg.Mode == CalibrateOnline {
		s.cache.EnableReplan(core.ReplanPolicy{
			ImbalanceThreshold: cfg.ImbalanceThreshold,
			ConsecutiveHits:    cfg.ConsecutiveHits,
			Coeffs:             res.Coeffs,
		})
	}
}

// calibrationStats snapshots the calibration block for Stats.
func (s *Session) calibrationStats(cache core.PlanCacheStats) CalibrationStats {
	st := CalibrationStats{
		Mode:     s.calib.mode.String(),
		FitNanos: s.calib.fitNanos,
		Replans:  cache.Replans,
		Drift:    cache.Drift,
	}
	if !s.calib.coeffs.IsZero() {
		st.Coefficients = make(map[string]float64, core.NumFamilies)
		for f := core.Family(0); f < core.NumFamilies; f++ {
			st.Coefficients[f.String()] = s.calib.coeffs[f]
		}
	}
	return st
}
