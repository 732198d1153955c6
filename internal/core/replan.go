package core

import (
	"time"

	"maskedspgemm/internal/semiring"
)

// Online plan re-binding (DESIGN.md §14). Every stat-collecting
// execution already measures the truth the §10 cost models only
// predict: per-worker busy times (whose ratio is the imbalance
// factor) and the wall time of the whole product. ObserveExecution
// feeds that truth back into the plan-cache entry that produced it;
// a plan whose imbalance EWMA stays above threshold for K consecutive
// observed hits is re-bound in the background — its Hybrid per-row
// selection re-run under the calibrated coefficients — and the new
// immutable Plan is swapped into the cache atomically. In-flight
// executions of the old plan finish on the old plan (it is immutable
// and they hold their own pointer); the next cache hit picks up the
// replacement.

// Replan defaults; see ReplanPolicy.
const (
	// DefaultImbalanceThreshold is the measured-imbalance level
	// (busiest worker busy time over the mean; 1.0 = perfect balance)
	// above which a plan's EWMA counts toward re-binding.
	DefaultImbalanceThreshold = 1.5
	// DefaultReplanHits is K: consecutive over-threshold observations
	// before a background re-bind launches.
	DefaultReplanHits = 8
	// DefaultReplanAlpha is the EWMA smoothing factor for the per-plan
	// imbalance and wall-time trackers.
	DefaultReplanAlpha = 0.25
)

// ReplanPolicy tunes the online feedback loop enabled by
// PlanCache.EnableReplan. The zero value means every default.
type ReplanPolicy struct {
	// ImbalanceThreshold is the EWMA imbalance level above which an
	// observation counts toward re-binding; <= 0 means
	// DefaultImbalanceThreshold.
	ImbalanceThreshold float64
	// ConsecutiveHits is K, the over-threshold streak that triggers a
	// re-bind; <= 0 means DefaultReplanHits.
	ConsecutiveHits int
	// Alpha is the EWMA smoothing factor in (0, 1]; out-of-range means
	// DefaultReplanAlpha.
	Alpha float64
	// Coeffs is the calibrated coefficient set a Hybrid re-bind re-runs
	// the per-row selector with — the startup micro-benchmark's fit,
	// applied online only to plans that keep measuring imbalanced under
	// their literal-cost binding. The zero value disables re-binding:
	// there is nothing to re-bind to.
	Coeffs CostCoeffs
}

// withDefaults resolves the zero values.
func (p ReplanPolicy) withDefaults() ReplanPolicy {
	if p.ImbalanceThreshold <= 0 {
		p.ImbalanceThreshold = DefaultImbalanceThreshold
	}
	if p.ConsecutiveHits <= 0 {
		p.ConsecutiveHits = DefaultReplanHits
	}
	if p.Alpha <= 0 || p.Alpha > 1 {
		p.Alpha = DefaultReplanAlpha
	}
	return p
}

// planFeedback is the per-entry measured record the replanner keys
// on. Guarded by the cache mutex.
type planFeedback struct {
	// ewmaImbalance / ewmaWall smooth the observed imbalance factors
	// and wall times (nanoseconds); seeded by the first sample.
	ewmaImbalance float64
	ewmaWall      float64
	// samples counts observations of the current plan (reset on swap:
	// the successor earns its own record).
	samples uint64
	// overStreak counts consecutive observations with the EWMA above
	// threshold.
	overStreak int
	// replans counts how many times this entry's plan was swapped.
	replans int
	// rebinding marks an in-flight background re-bind; at most one
	// per entry.
	rebinding bool
	// exhausted marks an entry with nothing left to re-bind (already
	// re-bound, or not re-bindable): no further re-binds fire.
	exhausted bool
}

// costProfile is the structural picture a Hybrid plan retains so the
// replanner can re-run its per-row selection later without touching
// the caller-owned A and B — which may be mutated, or gone, by then
// (plans only ever retain the mask; §8 ownership): the per-row flops
// and A-row populations and d̄_B, the RowCostContext inputs the
// selector reads.
type costProfile struct {
	rowFlops []int64
	rowANNZ  []int32
	avgBCol  float64
}

// EnableReplan turns on the online feedback loop: ObserveExecution
// calls start tracking per-plan EWMAs and re-binding plans that keep
// measuring imbalanced. Safe to call before or during concurrent use;
// the policy's zero fields resolve to the documented defaults.
func (c *PlanCache[T, S]) EnableReplan(pol ReplanPolicy) {
	p := pol.withDefaults()
	c.mu.Lock()
	c.replan = &p
	c.mu.Unlock()
}

// SetReplanLauncher overrides how background re-binds are started;
// the default launcher runs each job on a fresh goroutine. Tests
// inject a synchronous launcher to make the swap deterministic, and a
// serving layer could route jobs through a bounded worker. Must be
// set before observations flow.
func (c *PlanCache[T, S]) SetReplanLauncher(f func(func())) {
	c.mu.Lock()
	c.launch = f
	c.mu.Unlock()
}

// ObserveExecution feeds one execution's measured truth — the
// scheduler imbalance factor and the wall time — back into the cached
// entry holding plan. A no-op until EnableReplan, and for plans no
// longer in the cache (evicted, or already replaced by a re-bind:
// measurements of a predecessor must not poison the successor's
// record). When the imbalance EWMA has stayed above the policy
// threshold for K consecutive observations, the plan is re-bound in
// the background and the resulting plan atomically replaces the
// entry's; callers keep executing whichever plan their lookup
// returned — both are immutable — and subsequent hits get the
// replacement.
func (c *PlanCache[T, S]) ObserveExecution(plan *Plan[T, S], imbalance float64, wall time.Duration) {
	c.mu.Lock()
	pol := c.replan
	if pol == nil {
		c.mu.Unlock()
		return
	}
	el, ok := c.index[plan]
	if !ok {
		c.mu.Unlock()
		return
	}
	entry := el.Value.(*planEntry[T, S])
	fb := &entry.fb
	fb.samples++
	if fb.samples == 1 {
		fb.ewmaImbalance = imbalance
		fb.ewmaWall = float64(wall.Nanoseconds())
	} else {
		fb.ewmaImbalance += pol.Alpha * (imbalance - fb.ewmaImbalance)
		fb.ewmaWall += pol.Alpha * (float64(wall.Nanoseconds()) - fb.ewmaWall)
	}
	if fb.ewmaImbalance > pol.ImbalanceThreshold {
		fb.overStreak++
	} else {
		fb.overStreak = 0
	}
	if fb.overStreak < pol.ConsecutiveHits || fb.rebinding || fb.exhausted {
		c.mu.Unlock()
		return
	}
	if !rebindable(entry.plan, *pol) {
		fb.exhausted = true
		c.mu.Unlock()
		return
	}
	fb.rebinding = true
	fb.overStreak = 0
	launch := c.launch
	c.mu.Unlock()

	coeffs := pol.Coeffs
	job := func() { c.rebindSwap(plan, coeffs) }
	if launch != nil {
		launch(job)
	} else {
		go job()
	}
}

// rebindable reports whether an over-threshold plan can be re-bound:
// a Hybrid plan with more than one worker, whose retained selector
// profile can be re-run under calibrated coefficients it does not
// already carry. Serial plans have nothing to balance. Caller holds
// the cache mutex.
func rebindable[T any, S semiring.Semiring[T]](plan *Plan[T, S], pol ReplanPolicy) bool {
	return plan.opt.Threads > 1 && plan.opt.Algorithm == AlgoHybrid &&
		plan.profile != nil && !pol.Coeffs.IsZero() && plan.opt.CostCoeffs != pol.Coeffs
}

// rebindSwap builds the replacement plan outside the cache lock and
// swaps it into the entry still holding old. Runs on the replan
// launcher's goroutine. If the entry was evicted (or already swapped)
// while re-binding, the work is dropped — the cache never resurrects
// a plan the LRU let go.
func (c *PlanCache[T, S]) rebindSwap(old *Plan[T, S], coeffs CostCoeffs) {
	// Re-binding reads only plan-retained immutable state (mask,
	// profile), so it is safe against callers mutating A/B and against
	// concurrent executions of old.
	next := old.rebind(coeffs)

	c.mu.Lock()
	el, ok := c.index[old]
	if !ok {
		c.mu.Unlock()
		return
	}
	entry := el.Value.(*planEntry[T, S])
	entry.fb.rebinding = false
	// One re-bind per entry: the successor carries the coefficients.
	entry.fb.exhausted = true
	delete(c.index, old)
	c.index[next] = el
	entry.plan = next
	nb := next.footprintBytes()
	delta := nb - entry.bytes
	entry.bytes = nb
	c.bytes += delta
	if c.budget != nil {
		if delta > 0 {
			c.budget.Reserve(delta)
		} else if delta < 0 {
			c.budget.Release(-delta)
		}
	}
	entry.fb.replans++
	// The successor earns its own record: stale EWMAs from the plan it
	// replaced must not be reported as its own.
	entry.fb.ewmaImbalance, entry.fb.ewmaWall = 0, 0
	entry.fb.samples, entry.fb.overStreak = 0, 0
	c.replans++
	budget := c.budget
	c.mu.Unlock()
	if budget != nil && delta > 0 {
		// Shared-budget pressure resolves outside the cache lock:
		// Rebalance may evict from any member, including this cache.
		budget.Rebalance()
	}
}

// rebind builds a new immutable plan from p's retained analysis with
// its Hybrid per-row selection re-run under coeffs: same operands,
// same kernels registry, a re-selected run encoding. The clone is
// built field by field — Plan embeds a sync.Once — and shares the
// immutable analysis arrays (mask, offsets, CSC structure, profile)
// with p; both plans stay independently executable. p must be
// rebindable.
//
//mspgemm:planwrite
func (p *Plan[T, S]) rebind(coeffs CostCoeffs) *Plan[T, S] {
	n := &Plan[T, S]{
		sr: p.sr, opt: p.opt, info: p.info, mask: p.mask,
		aRows: p.aRows, aCols: p.aCols, bRows: p.bRows, bCols: p.bCols,
		aNNZ: p.aNNZ, bNNZ: p.bNNZ,
		offsets: p.offsets,
		btPtr:   p.btPtr, btIdx: p.btIdx, btPerm: p.btPerm,
		profile:      p.profile,
		heapNInspect: p.heapNInspect, maxMaskRow: p.maxMaskRow, maxARow: p.maxARow,
		reg: p.reg,
	}
	n.opt.CostCoeffs = coeffs
	n.rebindRuns()
	return n
}

// rebindRuns re-runs the Hybrid per-row selector from the retained
// profile under n's (re-calibrated) coefficients: the RowCostContext
// inputs come from the plan's own mask and profile — never from A or
// B, which the §8 ownership contract lets callers mutate between
// executions. Accumulator sizing hints are refreshed for the families
// the new encoding binds (maxARow from the profiled A-row
// populations). FamPull is only bindable if the original analysis
// built the CSC structure.
//
//mspgemm:planwrite
func (p *Plan[T, S]) rebindRuns() {
	prof := p.profile
	rows := p.mask.Rows
	opt := p.opt
	fams := polyCandidates(opt)
	if p.btPtr == nil {
		// No CSC structure was built at analysis time, so pull rows
		// could not execute; keep FamPull out of the re-selection.
		kept := fams[:0]
		for _, f := range fams {
			if f != FamPull {
				kept = append(kept, f)
			}
		}
		fams = kept
		if len(fams) == 0 {
			fams = []Family{FamMSA}
		}
	}
	models := make([]func(RowCostContext) float64, len(fams))
	for i, f := range fams {
		s, _ := LookupScheme(famAlgo[f])
		models[i] = s.RowCost
	}
	coeffs := opt.coeffs()
	cols, complement := p.mask.Cols, opt.Complement
	nInspect := resolveHeapNInspect(opt)
	rowFam := make([]uint8, rows)
	for i := 0; i < rows; i++ {
		m := p.mask.RowNNZ(i)
		flops := prof.rowFlops[i]
		admitted := m
		if complement {
			admitted = cols - m
		}
		if admitted == 0 || flops == 0 {
			rowFam[i] = famAny
			continue
		}
		ctx := RowCostContext{
			MaskNNZ: m, ARowNNZ: int(prof.rowANNZ[i]), Flops: flops,
			AvgBCol: prof.avgBCol, Cols: cols, Complement: complement,
			HeapNInspect: nInspect, Coeffs: coeffs,
		}
		best, bestCost := fams[0], models[0](ctx)
		for j := 1; j < len(models); j++ {
			if c := models[j](ctx); c < bestCost {
				best, bestCost = fams[j], c
			}
		}
		rowFam[i] = uint8(best)
	}
	p.encodeRuns(rowFam)
	if !opt.Complement && (p.polyFams.Has(FamHash) || p.polyFams.Has(FamMCA)) {
		p.maxMaskRow = p.mask.MaxRowNNZ()
	}
	if p.polyFams.Has(FamHeap) {
		maxA := 0
		for _, a := range prof.rowANNZ {
			if int(a) > maxA {
				maxA = int(a)
			}
		}
		p.maxARow = maxA
		p.heapNInspect = nInspect
	}
}

// PlanDrift is one cached plan's measured record — the /stats view of
// how far runtime truth has drifted from the plan's cost model, and
// what the replanner did about it.
type PlanDrift struct {
	// Scheme is the plan's scheme name ("Hybrid-1P" style).
	Scheme string
	// Rows is the plan's output row count.
	Rows int
	// EwmaImbalance is the smoothed measured imbalance factor of the
	// current plan (0 until the first post-swap observation).
	EwmaImbalance float64
	// EwmaWallNanos is the smoothed measured wall time in nanoseconds.
	EwmaWallNanos int64
	// Samples counts observations of the current plan.
	Samples uint64
	// Replans counts how many times this entry's plan was re-bound.
	Replans int
}
