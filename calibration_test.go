package maskedspgemm

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"maskedspgemm/internal/sparse"
)

// TestCalibrationModeParse pins the flag spellings both ways.
func TestCalibrationModeParse(t *testing.T) {
	for _, c := range []struct {
		in   string
		want CalibrationMode
	}{
		{"off", CalibrateOff},
		{"", CalibrateOff},
		{"startup", CalibrateStartup},
		{"online", CalibrateOnline},
	} {
		got, err := ParseCalibrationMode(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseCalibrationMode(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseCalibrationMode("sometimes"); err == nil {
		t.Error("ParseCalibrationMode accepted an unknown mode")
	}
	for _, m := range []CalibrationMode{CalibrateOff, CalibrateStartup, CalibrateOnline} {
		back, err := ParseCalibrationMode(m.String())
		if err != nil || back != m {
			t.Errorf("round trip of %v: got %v, %v", m, back, err)
		}
	}
}

// TestSessionCalibrateOffParity is the -calibrate=off acceptance
// criterion at the session level: an explicitly-off session runs no
// fit, injects nothing, and its results are bit-for-bit the default
// session's (which are themselves pinned against package Multiply by
// TestSessionMatchesMultiply).
func TestSessionCalibrateOffParity(t *testing.T) {
	plain := NewSession()
	off := NewSession(WithCalibration(CalibrationConfig{Mode: CalibrateOff}))
	eq := func(x, y float64) bool { return x == y }
	for _, g := range sessionGraphs() {
		for _, algo := range []Algorithm{MSA, Hybrid} {
			want, err := plain.Multiply(g.PatternView(), g, g, WithAlgorithm(algo))
			if err != nil {
				t.Fatal(err)
			}
			got, err := off.Multiply(g.PatternView(), g, g, WithAlgorithm(algo))
			if err != nil {
				t.Fatal(err)
			}
			if !sparse.EqualFunc(want, got, eq) {
				t.Fatalf("algo %v: calibrate=off result differs from default session", algo)
			}
		}
	}
	st := off.Stats().Calibration
	if st.Mode != "off" || st.FitNanos != 0 || st.Coefficients != nil || st.Replans != 0 {
		t.Errorf("calibrate=off stats = %+v, want inert block", st)
	}
}

// TestSessionCalibrateStartup: the fit runs once at construction
// (bounded, off the request path), its coefficients surface in Stats,
// and calibrated serving still computes the exact product.
func TestSessionCalibrateStartup(t *testing.T) {
	t0 := time.Now()
	s := NewSession(WithCalibration(CalibrationConfig{Mode: CalibrateStartup}))
	if boot := time.Since(t0); boot > 30*time.Second {
		t.Fatalf("startup fit took %v", boot)
	}
	eq := func(x, y float64) bool { return x == y }
	for _, g := range sessionGraphs() {
		want, err := Multiply(g.PatternView(), g, g, WithAlgorithm(Hybrid))
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Multiply(g.PatternView(), g, g, WithAlgorithm(Hybrid))
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.EqualFunc(want, got, eq) {
			t.Fatal("calibrated session computes a different product")
		}
	}
	st := s.Stats().Calibration
	if st.Mode != "startup" {
		t.Errorf("mode = %q", st.Mode)
	}
	if st.FitNanos <= 0 {
		t.Errorf("FitNanos = %d, want > 0", st.FitNanos)
	}
	if len(st.Coefficients) == 0 {
		t.Skip("host too noisy to fit even MSA; coefficient surfacing untestable here")
	}
	if msa := st.Coefficients["MSA"]; msa != 1.0 {
		t.Errorf("MSA coefficient = %v, want the 1.0 anchor", msa)
	}
	for fam, c := range st.Coefficients {
		if c <= 0 {
			t.Errorf("family %s: coefficient %v not positive", fam, c)
		}
	}
	// Warming keys like serving: a warmed structure must hit.
	g := ErdosRenyi(200, 6, 9)
	if err := s.Warm(g.PatternView(), g, g, WithAlgorithm(Hybrid)); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Cache
	if _, err := s.Multiply(g.PatternView(), g, g, WithAlgorithm(Hybrid)); err != nil {
		t.Fatal(err)
	}
	after := s.Stats().Cache
	if after.Hits != before.Hits+1 {
		t.Errorf("warmed structure missed under startup calibration: %+v → %+v", before, after)
	}
}

// TestSessionOnlineReplan is the serving-level K-hit story: an online
// session observes every execution, and a Hybrid plan whose measured
// imbalance EWMA stays over threshold for K consecutive hits is
// re-bound in the background and swapped — subsequent requests execute
// the swapped plan and still get the exact product. The launcher is
// made synchronous and the threshold sits below 1.0 (any parallel pass
// with participants measures imbalance ≥ 1.0), so the test is
// deterministic with no sleeps.
func TestSessionOnlineReplan(t *testing.T) {
	s := NewSession(WithCalibration(CalibrationConfig{
		Mode:               CalibrateOnline,
		ImbalanceThreshold: 0.99,
		ConsecutiveHits:    2,
	}))
	s.cache.SetReplanLauncher(func(job func()) { job() })

	g := ErdosRenyi(512, 8, 7)
	want, err := Multiply(g.PatternView(), g, g)
	if err != nil {
		t.Fatal(err)
	}
	eq := func(x, y float64) bool { return x == y }
	for i := 0; i < 8; i++ {
		got, err := s.Multiply(g.PatternView(), g, g, WithAlgorithm(Hybrid), WithThreads(4))
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.EqualFunc(want, got, eq) {
			t.Fatalf("request %d: wrong product", i)
		}
	}
	st := s.Stats().Calibration
	if st.Mode != "online" {
		t.Errorf("mode = %q", st.Mode)
	}
	if st.Replans == 0 {
		t.Error("8 over-threshold hits with K=2 triggered no re-bind")
	}
	if len(st.Drift) == 0 {
		t.Error("online session reports no drift records")
	}
	// Online mode keys plans literally — a request with explicit
	// options must not see coefficient-fragmented keys.
	if s.Stats().Cache.Misses != 1 {
		t.Errorf("misses = %d, want 1 (one structure, one key)", s.Stats().Cache.Misses)
	}
}

// TestSessionOnlineRefsAtomicity hammers MultiplyRefs from many
// goroutines while a background re-bind (real goroutine, default
// launcher) swaps the hot Hybrid plan underneath them: every request must see
// a consistent plan and the exact product. Run under -race in CI.
func TestSessionOnlineRefsAtomicity(t *testing.T) {
	s := NewSession(WithCalibration(CalibrationConfig{
		Mode:               CalibrateOnline,
		ImbalanceThreshold: 0.99,
		ConsecutiveHits:    2,
	}))
	g := ErdosRenyi(512, 8, 11)
	ref, _ := s.PutOperand(g)
	want, err := Multiply(g.PatternView(), g, g)
	if err != nil {
		t.Fatal(err)
	}
	eq := func(x, y float64) bool { return x == y }

	const workers = 4
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				got, err := s.MultiplyRefs(ref.Pattern, ref, ref, WithAlgorithm(Hybrid), WithThreads(4))
				if err != nil {
					errs <- err
					return
				}
				if !sparse.EqualFunc(want, got, eq) {
					errs <- fmt.Errorf("iteration %d: wrong product during background re-bind", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s.Stats().Calibration.Replans == 0 {
		t.Error("sustained over-threshold traffic triggered no re-bind")
	}
}
