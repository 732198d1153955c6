package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"maskedspgemm/internal/gen"
	"maskedspgemm/internal/sparse"
)

func TestSchemeEnumerations(t *testing.T) {
	ours := OurSchemes()
	if len(ours) != 12 {
		t.Fatalf("OurSchemes = %d, want 12 (6 algorithms × 2 phases)", len(ours))
	}
	seen := map[string]bool{}
	for _, s := range ours {
		if seen[s.Name] {
			t.Fatalf("duplicate scheme %q", s.Name)
		}
		seen[s.Name] = true
		if !strings.HasSuffix(s.Name, "-1P") && !strings.HasSuffix(s.Name, "-2P") {
			t.Errorf("scheme name %q missing phase suffix", s.Name)
		}
	}
	if len(BestThreeSchemes()) != 3 {
		t.Error("BestThreeSchemes should have 3 entries")
	}
	if len(BaselineSchemes()) != 2 {
		t.Error("BaselineSchemes should have 2 entries")
	}
	if len(Fig7Schemes()) != 6 {
		t.Error("Fig7Schemes should have 6 entries")
	}
	for _, s := range ComplementSchemes() {
		if strings.Contains(s.Name, "MCA") {
			t.Error("MCA cannot appear in complement schemes")
		}
	}
	s := OurSchemes()[0].WithThreads(3)
	if s.Opt.Threads != 3 {
		t.Error("WithThreads did not pin thread count")
	}
}

func TestTimeBest(t *testing.T) {
	calls := 0
	d, err := TimeBest(3, func() error {
		calls++
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("calls = %d err = %v", calls, err)
	}
	if d < 500*time.Microsecond {
		t.Errorf("implausible best time %v", d)
	}
	// reps < 1 behaves as 1.
	calls = 0
	if _, err := TimeBest(0, func() error { calls++; return nil }); err != nil || calls != 1 {
		t.Errorf("reps=0: calls = %d", calls)
	}
}

func TestRunFig7Tiny(t *testing.T) {
	cfg := Fig7Config{
		Dim:          256,
		MaskDegrees:  []int{2, 16},
		InputDegrees: []int{2, 16},
		Reps:         1,
		Seed:         1,
	}
	cells, err := RunFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	for _, c := range cells {
		if c.Best == "" || len(c.Seconds) != 6 {
			t.Fatalf("cell incomplete: %+v", c)
		}
		bestT := c.Seconds[c.Best]
		for _, sec := range c.Seconds {
			if sec < bestT {
				t.Fatal("Best is not the minimum")
			}
		}
	}
	var buf bytes.Buffer
	WriteFig7(&buf, cfg, cells)
	if !strings.Contains(buf.String(), "Figure 7") {
		t.Error("WriteFig7 missing caption")
	}
}

func tinySuite() []gen.Instance {
	return []gen.Instance{
		{Name: "rmat-tiny", Build: func() *sparse.CSR[float64] {
			return gen.RMATSymmetric(gen.RMATConfig{Scale: 7, EdgeFactor: 8, Seed: 1})
		}},
		{Name: "er-tiny", Build: func() *sparse.CSR[float64] {
			return gen.Symmetrize(gen.ErdosRenyi(256, 8, 2))
		}},
	}
}

func TestRunProfileAllApps(t *testing.T) {
	schemes := []Scheme{OurSchemes()[0], OurSchemes()[2]} // MSA-1P, Hash-1P
	for _, app := range []AppKind{AppTriangleCount, AppKTruss, AppBetweenness} {
		p, err := RunProfile(ProfileConfig{
			App: app, Instances: tinySuite(), Schemes: schemes, Reps: 1, BCBatch: 8,
		})
		if err != nil {
			t.Fatalf("%v: %v", app, err)
		}
		if len(p.Instances) != 2 || len(p.Schemes) != 2 {
			t.Fatalf("%v: profile shape %d×%d", app, len(p.Instances), len(p.Schemes))
		}
		// Someone must be best on each instance.
		winners := 0.0
		for _, s := range p.Schemes {
			winners += p.WinFraction(s)
		}
		if winners < 1 {
			t.Errorf("%v: no winners recorded", app)
		}
		var buf bytes.Buffer
		WriteProfile(&buf, app.String(), p)
		if !strings.Contains(buf.String(), "winner:") {
			t.Error("WriteProfile missing winner line")
		}
	}
}

func TestRunScaleSweep(t *testing.T) {
	for _, app := range []AppKind{AppTriangleCount, AppKTruss, AppBetweenness} {
		cfg := ScaleSweepConfig{
			App: app, Scales: []int{7, 8}, EdgeFactor: 8,
			Schemes: []Scheme{OurSchemes()[0]}, Reps: 1, BCBatch: 8, Seed: 3,
		}
		pts, err := RunScaleSweep(cfg)
		if err != nil {
			t.Fatalf("%v: %v", app, err)
		}
		if len(pts) != 2 {
			t.Fatalf("%v: points = %d", app, len(pts))
		}
		for _, pt := range pts {
			if pt.Rate <= 0 || pt.Seconds <= 0 {
				t.Errorf("%v: non-positive rate/time %+v", app, pt)
			}
		}
		var buf bytes.Buffer
		WriteScaleSweep(&buf, "test", "RATE", cfg, pts)
		if !strings.Contains(buf.String(), "MSA-1P") {
			t.Error("WriteScaleSweep missing series")
		}
	}
}

func TestRunThreadSweep(t *testing.T) {
	cfg := ThreadSweepConfig{
		Scale: 7, EdgeFactor: 8, Threads: []int{1, 2},
		Schemes: []Scheme{OurSchemes()[0]}, Reps: 1, Seed: 4,
	}
	pts, err := RunThreadSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	var buf bytes.Buffer
	WriteThreadSweep(&buf, "test", cfg, pts)
	if !strings.Contains(buf.String(), "GFLOPS") {
		t.Error("WriteThreadSweep missing rate name")
	}
}

func TestCheckCorrectness(t *testing.T) {
	if err := CheckCorrectness(2); err != nil {
		t.Fatal(err)
	}
}

// TestRunBitmapMixTiny exercises the MaskedBit experiment end to end
// at a small scale: every workload carries all eight schemes, the
// Hybrid points expose their family mix, and the JSON document
// round-trips.
func TestRunBitmapMixTiny(t *testing.T) {
	cfg := BitmapMixConfig{Scale: 8, EdgeFactor: 4, Threads: 2, Reps: 1, Seed: 11}
	pts, err := RunBitmapMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 workloads × (6 single families + 2 Hybrid variants).
	if len(pts) != 32 {
		t.Fatalf("points = %d, want 32", len(pts))
	}
	workloads := map[string]bool{}
	for _, p := range pts {
		if p.Seconds <= 0 {
			t.Errorf("non-positive time: %+v", p)
		}
		workloads[p.Workload] = true
		switch p.Scheme {
		case "Hybrid", HybridNoMaskedBitScheme:
			if len(p.FamilyRows) == 0 {
				t.Errorf("%s/%s: missing family mix", p.Workload, p.Scheme)
			}
			if p.Scheme == HybridNoMaskedBitScheme {
				if _, ok := p.FamilyRows["MaskedBit"]; ok {
					t.Errorf("%s: ablated Hybrid bound MaskedBit rows", p.Workload)
				}
			}
		case "MSA":
			if p.VsMSA != 1 {
				t.Errorf("%s/MSA: vs_msa = %v, want 1", p.Workload, p.VsMSA)
			}
		}
	}
	for _, wl := range []string{"er-dense", "er-sweep", "rmat-sweep", "er-uniform-sparse"} {
		if !workloads[wl] {
			t.Errorf("missing workload %s", wl)
		}
	}
	var buf bytes.Buffer
	WriteBitmapMix(&buf, cfg, pts)
	if !strings.Contains(buf.String(), "MaskedBit") {
		t.Error("table missing MaskedBit rows")
	}
	buf.Reset()
	if err := WriteBitmapMixJSON(&buf, cfg, pts); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Points []BitmapMixPoint `json:"points"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("BENCH_bitmap.json round-trip: %v", err)
	}
	if len(doc.Points) != len(pts) {
		t.Fatalf("JSON points = %d, want %d", len(doc.Points), len(pts))
	}
}

// TestRunCancelOverheadTiny exercises the cancel-overhead experiment
// end to end at a small scale: both arms time positively, the ratio is
// their quotient, and the JSON document round-trips with the .ratio
// field the CI gate reads.
func TestRunCancelOverheadTiny(t *testing.T) {
	cfg := CancelOverheadConfig{Scale: 8, EdgeFactor: 4, Threads: 2, Reps: 2, Seed: 17}
	res, err := RunCancelOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineSeconds <= 0 || res.TokenSeconds <= 0 {
		t.Fatalf("non-positive arm times: %+v", res)
	}
	if want := res.TokenSeconds / res.BaselineSeconds; res.Ratio != want {
		t.Errorf("ratio = %v, want %v", res.Ratio, want)
	}
	var buf bytes.Buffer
	WriteCancelOverhead(&buf, cfg, res)
	if !strings.Contains(buf.String(), "token-never-latched") {
		t.Errorf("table missing token arm:\n%s", buf.String())
	}
	buf.Reset()
	if err := WriteCancelOverheadJSON(&buf, cfg, res); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Result struct {
			Ratio float64 `json:"ratio"`
		} `json:"result"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("BENCH_cancel.json round-trip: %v", err)
	}
	if doc.Result.Ratio != res.Ratio {
		t.Errorf("JSON ratio = %v, want %v", doc.Result.Ratio, res.Ratio)
	}
}
