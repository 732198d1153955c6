package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"maskedspgemm/internal/semiring"
	"maskedspgemm/internal/sparse"
)

// syncLauncher runs re-bind jobs inline on the observing goroutine,
// making swaps deterministic for tests: the Kth ObserveExecution
// returns only after the swap completed.
func syncLauncher(job func()) { job() }

// observeN feeds n identical fake measurements for plan.
func observeN[T any, S semiring.Semiring[T]](c *PlanCache[T, S], p *Plan[T, S], n int, imbalance float64) {
	for i := 0; i < n; i++ {
		c.ObserveExecution(p, imbalance, time.Millisecond)
	}
}

// heapCoeffs makes every family but Heap look expensive, so a
// re-selection under them visibly moves rows to Heap.
func heapCoeffs() CostCoeffs {
	var co CostCoeffs
	for f := range co {
		co[f] = 50
	}
	co[FamHeap] = 0.001
	return co
}

// TestReplanKHitSwap pins the acceptance path end to end with fake
// measurements and no sleeps: a Hybrid plan that measures imbalanced
// for K consecutive observed hits is re-bound in the background (here:
// synchronously, via the injected launcher) under the policy's
// calibrated coefficients, the cache entry swaps to the new immutable
// plan, subsequent hits return it, the swapped plan still computes the
// same product, and the entry is then spent.
func TestReplanKHitSwap(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 512, 512, 512, 8, 8, 8, 5})
	opt := Options{Algorithm: AlgoHybrid, Threads: 4}

	c := NewPlanCache[float64](sr, 8, 0)
	c.SetReplanLauncher(syncLauncher)
	c.EnableReplan(ReplanPolicy{ImbalanceThreshold: 1.2, ConsecutiveHits: 3, Coeffs: heapCoeffs()})

	p0, err := c.GetOrPlan(mask, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p0.profile == nil {
		t.Fatal("precondition: wide hybrid plan retained no profile")
	}
	want, err := p0.ExecuteOn(NewExecutor[float64](sr), a, b)
	if err != nil {
		t.Fatal(err)
	}

	// K-1 over-threshold observations: no swap yet.
	observeN(c, p0, 2, 2.0)
	if p1, _ := c.GetOrPlan(mask, a, b, opt); p1 != p0 {
		t.Fatal("plan swapped before K consecutive over-threshold hits")
	}
	// The Kth triggers the (synchronous) re-bind.
	observeN(c, p0, 1, 2.0)
	p1, err := c.GetOrPlan(mask, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p0 {
		t.Fatal("plan not swapped after K over-threshold hits")
	}
	if p1.opt.CostCoeffs != heapCoeffs() {
		t.Errorf("re-bound plan carries coeffs %v, want the policy's", p1.opt.CostCoeffs)
	}
	got, err := p1.ExecuteOn(NewExecutor[float64](sr), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(want, got) {
		t.Error("re-bound plan computes a different product")
	}
	st := c.Stats()
	if st.Replans != 1 {
		t.Errorf("Replans = %d, want 1", st.Replans)
	}
	if len(st.Drift) != 1 || st.Drift[0].Replans != 1 {
		t.Errorf("drift record %+v, want one entry with Replans=1", st.Drift)
	}

	// Observations against the replaced pointer are dropped: the
	// successor's fresh record must stay untouched.
	observeN(c, p0, 10, 9.9)
	if st := c.Stats(); st.Replans != 1 || st.Drift[0].Samples != 0 {
		t.Errorf("stale-plan observations leaked into the successor: %+v", st.Drift)
	}

	// Spent: further pressure on the successor never swaps again.
	observeN(c, p1, 10, 9.0)
	if final, _ := c.GetOrPlan(mask, a, b, opt); final != p1 {
		t.Error("spent entry still swapped")
	}
	if st := c.Stats(); st.Replans != 1 {
		t.Errorf("Replans = %d, want 1", st.Replans)
	}
}

// TestReplanBelowThresholdNeverFires: balanced measurements keep the
// plan, and a streak broken before K resets.
func TestReplanBelowThresholdNeverFires(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 256, 256, 256, 8, 8, 8, 6})
	c := NewPlanCache[float64](sr, 8, 0)
	c.SetReplanLauncher(syncLauncher)
	c.EnableReplan(ReplanPolicy{ImbalanceThreshold: 1.5, ConsecutiveHits: 3, Coeffs: heapCoeffs()})
	opt := Options{Algorithm: AlgoHybrid, Threads: 4}
	p0, err := c.GetOrPlan(mask, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	observeN(c, p0, 50, 1.05)
	// Streak broken at 2: 2 over, 1 under, repeatedly. The EWMA is
	// dragged under threshold by the alternation, so no swap fires.
	for i := 0; i < 6; i++ {
		observeN(c, p0, 2, 1.6)
		observeN(c, p0, 2, 1.0)
	}
	if p1, _ := c.GetOrPlan(mask, a, b, opt); p1 != p0 {
		t.Error("balanced plan was re-bound")
	}
	if st := c.Stats(); st.Replans != 0 {
		t.Errorf("Replans = %d, want 0", st.Replans)
	}
}

// TestReplanSerialPlanExempt: only a wide Hybrid plan can be re-bound.
// A Threads==1 plan has nothing to balance and retains no selector
// profile; a non-Hybrid plan has no selection to re-run. Both report
// exhausted instead of churning.
func TestReplanSerialPlanExempt(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 512, 512, 512, 8, 8, 8, 7})
	c := NewPlanCache[float64](sr, 8, 0)
	c.SetReplanLauncher(syncLauncher)
	c.EnableReplan(ReplanPolicy{ImbalanceThreshold: 1.2, ConsecutiveHits: 2, Coeffs: heapCoeffs()})
	for _, opt := range []Options{
		{Algorithm: AlgoHybrid, Threads: 1},
		{Algorithm: AlgoMSA, Threads: 4},
	} {
		p0, err := c.GetOrPlan(mask, a, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if p0.profile != nil {
			t.Errorf("%s/t%d: retained a profile no re-bind can use", opt.SchemeName(), opt.Threads)
		}
		observeN(c, p0, 10, 5.0)
		if p1, _ := c.GetOrPlan(mask, a, b, opt); p1 != p0 {
			t.Errorf("%s/t%d: plan was re-bound", opt.SchemeName(), opt.Threads)
		}
	}
	if st := c.Stats(); st.Replans != 0 {
		t.Errorf("Replans = %d, want 0", st.Replans)
	}
}

// TestReplanCoeffsRebind pins the re-bind itself: a Hybrid plan bound
// under literal costs, measuring imbalanced, is re-selected with the
// policy's calibrated coefficients — the run encoding changes, the
// product does not, and the re-bind never refires once the plan
// carries the coefficients.
func TestReplanCoeffsRebind(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 512, 512, 512, 8, 8, 8, 320})
	opt := Options{Algorithm: AlgoHybrid, Threads: 4}
	// The re-bound encoding must shift rows toward Heap.
	coeffs := heapCoeffs()

	c := NewPlanCache[float64](sr, 8, 0)
	c.SetReplanLauncher(syncLauncher)
	c.EnableReplan(ReplanPolicy{ImbalanceThreshold: 1.2, ConsecutiveHits: 2, Coeffs: coeffs})

	p0, err := c.GetOrPlan(mask, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p0.profile == nil || p0.profile.rowFlops == nil {
		t.Fatal("precondition: hybrid plan retained no selector profile")
	}
	want, err := p0.ExecuteOn(NewExecutor[float64](sr), a, b)
	if err != nil {
		t.Fatal(err)
	}
	rows0 := p0.FamilyRows()

	observeN(c, p0, 2, 3.0)
	p1, _ := c.GetOrPlan(mask, a, b, opt)
	if p1 == p0 {
		t.Fatal("no swap after K hits")
	}
	if p1.opt.CostCoeffs != coeffs {
		t.Fatalf("re-bound plan carries coeffs %v, want the policy's", p1.opt.CostCoeffs)
	}
	rows1 := p1.FamilyRows()
	if rows1[FamHeap] <= rows0[FamHeap] {
		t.Errorf("heap-favoring coefficients did not move rows to Heap: before %v after %v", rows0, rows1)
	}
	got, err := p1.ExecuteOn(NewExecutor[float64](sr), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(want, got) {
		t.Error("coefficient re-bind changed the product")
	}

	// Once calibrated, the entry is spent: more pressure never
	// re-selects again.
	observeN(c, p1, 4, 3.0)
	if p2, _ := c.GetOrPlan(mask, a, b, opt); p2 != p1 {
		t.Error("calibrated plan was re-bound again")
	}
}

// TestRebindUnitCoeffsParity is the -calibrate=off criterion at the
// core level: an all-ones coefficient array multiplies every model by
// exactly 1.0, so the binding must be bit-for-bit identical to the
// uncalibrated plan's — whether selected at plan time or re-selected
// by a re-bind.
func TestRebindUnitCoeffsParity(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 512, 512, 512, 8, 8, 8, 321})
	base := Options{Algorithm: AlgoHybrid, Threads: 4}
	p0, err := NewPlan(sr, mask, a, b, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	unit := base
	for f := range unit.CostCoeffs {
		unit.CostCoeffs[f] = 1.0
	}
	p1, err := NewPlan(sr, mask, a, b, unit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(p0.runEnds) != fmt.Sprint(p1.runEnds) || fmt.Sprint(p0.runFam) != fmt.Sprint(p1.runFam) {
		t.Error("unit coefficients changed the run encoding")
	}
	rebound := p0.rebind(unit.CostCoeffs)
	if fmt.Sprint(p0.runEnds) != fmt.Sprint(rebound.runEnds) || fmt.Sprint(p0.runFam) != fmt.Sprint(rebound.runFam) {
		t.Error("re-binding under unit coefficients changed the run encoding")
	}
}

// TestReplanSwapKeepsAccounting: a swap adjusts the cache's byte
// accounting to the new plan's footprint.
func TestReplanSwapKeepsAccounting(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 512, 512, 512, 8, 8, 8, 5})
	c := NewPlanCache[float64](sr, 8, 0)
	c.SetReplanLauncher(syncLauncher)
	c.EnableReplan(ReplanPolicy{ImbalanceThreshold: 1.2, ConsecutiveHits: 2, Coeffs: heapCoeffs()})
	opt := Options{Algorithm: AlgoHybrid, Threads: 4}
	p0, err := c.GetOrPlan(mask, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	observeN(c, p0, 2, 3.0)
	p1, _ := c.GetOrPlan(mask, a, b, opt)
	if p1 == p0 {
		t.Fatal("no swap")
	}
	if got, want := c.Stats().Bytes, p1.footprintBytes(); got != want {
		t.Errorf("cache bytes %d after swap, want the new plan's footprint %d", got, want)
	}
}

// TestReplanConcurrentExecutions hammers a cache-shared plan with
// concurrent executions while background re-binds (real goroutines,
// default launcher) swap the entry underneath them: every
// execution must see a consistent plan — old or new, never torn — and
// produce the exact product. Run with -race.
func TestReplanConcurrentExecutions(t *testing.T) {
	sr := semiring.PlusTimes[float64]{}
	mask, a, b := buildCase(caseSpec{"", 512, 512, 512, 8, 8, 8, 5})
	opt := Options{Algorithm: AlgoHybrid, Threads: 4}
	coeffs := CostCoeffs{10, 1, 1, 0.01, 1, 1}

	c := NewPlanCache[float64](sr, 8, 0)
	c.EnableReplan(ReplanPolicy{ImbalanceThreshold: 1.1, ConsecutiveHits: 2, Coeffs: coeffs})

	p0, err := c.GetOrPlan(mask, a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p0.ExecuteOn(NewExecutor[float64](sr), a, b)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const iters = 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exec := NewExecutor[float64](sr)
			for i := 0; i < iters; i++ {
				p, err := c.GetOrPlan(mask, a, b, opt)
				if err != nil {
					errs <- err
					return
				}
				got, err := p.ExecuteOnOpts(exec, a, b, ExecOptions{CollectSchedStats: true})
				if err != nil {
					errs <- err
					return
				}
				if !sparse.Equal(want, got) {
					errs <- fmt.Errorf("iteration %d: wrong product under concurrent re-bind", i)
					return
				}
				// Feed pressure so the swap fires mid-traffic.
				c.ObserveExecution(p, 5.0, time.Millisecond)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if c.Stats().Replans == 0 {
		t.Error("stress run never triggered a re-bind")
	}
}
