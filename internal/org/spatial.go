package org

// Spatial surrogate tier: a compact thermal model (internal/surrogate)
// calibrated per (engine, benchmark) against a fixed design-of-experiments
// set of real leakage-coupled simulations. One spatialModel holds one
// fitted surrogate per chiplet-count class (1, 4, 16); prediction is
// zero-alloc once the per-placement kernel matrix is cached, so the tier
// answers clearly-feasible and clearly-infeasible evaluations in well under
// a microsecond instead of a CG solve.
//
// Determinism: the DoE set is fixed, the fit is deterministic
// (surrogate.Fit), and predictions are pure functions of (benchmark,
// placement, op, p) and the engine physics. Calibration runs under a
// singleflight keyed by benchmark, and its simulations are published into
// the ordinary sim memo, so concurrent searches sharing an engine observe
// exactly the same model a serial run would.

import (
	"context"
	"fmt"
	"math"
	"sync"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/obs"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
	"chiplet25d/internal/surrogate"
)

const (
	// spatialHoldoutEvery withholds every k-th DoE sample from the fit so
	// the calibration record carries an honest generalization error.
	spatialHoldoutEvery = 3
	// spatialKernelCap bounds the per-class cache of placement kernel
	// matrices (cleared wholesale on overflow; recomputation is pure).
	spatialKernelCap = 4096
	// spatialCalCap bounds the number of per-benchmark calibrations
	// resident on one engine.
	spatialCalCap = 64
	// maxSpatialChiplets sizes the prediction-path stack buffers (the
	// largest organization class is 4x4).
	maxSpatialChiplets = 16
	// spatialLeakIters is the fixed number of leakage-refinement passes in
	// a prediction: per-chiplet powers are evaluated at the previously
	// predicted temperatures, then rises are re-predicted. Two passes keep
	// the power estimate within the calibration's recorded error at paper
	// operating points while staying allocation- and branch-free.
	spatialLeakIters = 2
)

// calEntry is the singleflight slot for one benchmark's calibration.
type calEntry struct {
	done  chan struct{}
	model *spatialModel
	err   error
}

// spatialModel is a calibrated spatial surrogate for one benchmark on one
// engine: one fitted class per supported chiplet count.
type spatialModel struct {
	classes map[int]*spatialClass
}

// spatialClass is the fitted surrogate for one chiplet-count class plus its
// per-placement kernel-matrix cache.
type spatialClass struct {
	cal surrogate.Calibration

	mu      sync.Mutex
	kernels map[plKey][]float64
}

// doePoint is one design-of-experiments simulation: a placement and an
// operating point.
type doePoint struct {
	pl   floorplan.Placement
	fIdx int
	p    int
}

// spatialDoE returns the fixed, deterministic design-of-experiments plan,
// grouped by chiplet-count class. The plan spans the DVFS table, the
// active-core range, and (for chiplet classes) three spacing geometries;
// sample order interleaves operating points so the every-k-th holdout
// partition withholds a whole geometry, measuring exactly the
// generalization the search relies on (many spacings, few DoE solves).
func spatialDoE() (map[int][]doePoint, error) {
	ops := [][2]int{{0, 256}, {2, 160}, {4, 96}}
	plan := make(map[int][]doePoint, 3)

	// 2D baseline: a single class-1 geometry, so spread the samples over
	// extra operating points instead.
	single := floorplan.SingleChip()
	for _, op := range [][2]int{{0, 256}, {0, 128}, {1, 64}, {2, 192}, {3, 96}, {4, 32}} {
		plan[1] = append(plan[1], doePoint{pl: single, fIdx: op[0], p: op[1]})
	}

	fourSp := []float64{1, 2.5, 4, 6}
	for _, op := range ops {
		for _, s3 := range fourSp {
			pl, err := floorplan.PaperOrg(4, 0, 0, s3)
			if err != nil {
				return nil, err
			}
			plan[4] = append(plan[4], doePoint{pl: pl, fIdx: op[0], p: op[1]})
		}
	}

	sixteenSp := [][3]float64{{0.5, 0.5, 1}, {1, 1, 2}, {0.5, 1.5, 2}, {2, 0.5, 4}}
	for _, op := range ops {
		for _, sp := range sixteenSp {
			pl, err := floorplan.PaperOrg(16, sp[0], sp[1], sp[2])
			if err != nil {
				return nil, err
			}
			plan[16] = append(plan[16], doePoint{pl: pl, fIdx: op[0], p: op[1]})
		}
	}
	return plan, nil
}

// spatialFor returns the engine's calibrated spatial model for a benchmark,
// calibrating on first use. Calibration is singleflighted per benchmark;
// the winner's DoE simulations are charged to its st. Errors are never
// memoized.
func (e *Engine) spatialFor(ctx context.Context, b perf.Benchmark, st *EvalStats) (*spatialModel, error) {
	bk := benchKeyOf(b)
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("org: search canceled: %w", err)
		}
		e.spatialMu.Lock()
		if ent, ok := e.spatials[bk]; ok {
			select {
			case <-ent.done:
				e.spatialMu.Unlock()
				return ent.model, ent.err
			default:
			}
			e.spatialMu.Unlock()
			select {
			case <-ent.done:
			case <-ctx.Done():
				return nil, fmt.Errorf("org: search canceled: %w", ctx.Err())
			}
			if ent.err == nil {
				return ent.model, nil
			}
			if ctx.Err() == nil && ctxErrLike(ent.err) {
				// The calibrating goroutine was canceled but this caller is
				// live: retry (the failed entry has been removed).
				continue
			}
			return nil, ent.err
		}
		ent := &calEntry{done: make(chan struct{})}
		if len(e.spatials) >= spatialCalCap {
			for k, old := range e.spatials {
				select {
				case <-old.done:
					delete(e.spatials, k)
				default:
				}
			}
		}
		e.spatials[bk] = ent
		e.spatialMu.Unlock()

		model, err := e.calibrate(ctx, b, st)
		ent.model, ent.err = model, err
		if err != nil {
			e.spatialMu.Lock()
			if e.spatials[bk] == ent {
				delete(e.spatials, bk)
			}
			e.spatialMu.Unlock()
		}
		close(ent.done)
		if err == nil {
			e.calibrations.Add(1)
		}
		return model, err
	}
}

// calibrate runs the DoE simulations for every class, fits the spatial
// surrogate against them, and replaces each class's worst-case error bound
// with the safety-inflated end-to-end PEAK error: every DoE point replayed
// through the actual prediction path (estimated per-chiplet powers
// included) against its full simulation's peak temperature. The per-chiplet
// kernel residuals stay in the record as diagnostics but do not enter the
// bound — the tier answers peak queries, and a cold chiplet's misprediction
// never moves the peak, so bounding on per-chiplet errors would only widen
// the escalation band without adding safety.
func (e *Engine) calibrate(ctx context.Context, b perf.Benchmark, st *EvalStats) (*spatialModel, error) {
	ctx, sp := obs.Start(ctx, "engine.spatial_calibrate")
	sp.SetAttr("bench", b.Name)
	defer sp.End()
	plan, err := spatialDoE()
	if err != nil {
		return nil, err
	}
	classes := []int{1, 4, 16}
	var points []doePoint
	for _, class := range classes {
		points = append(points, plan[class]...)
	}
	// The DoE simulations are independent, so they fan out over the slots
	// the context's Lender grants. Outputs land in plan-indexed slots and
	// are merged in plan order, so the fit and the stats never depend on
	// which goroutine ran what. Simulations above the lowest failed one are
	// skipped; every one below it runs, so the ascending scan below returns
	// the error the serial loop would have.
	type doeOut struct {
		smp  surrogate.Sample
		peak float64
		st   EvalStats
		err  error
	}
	outs := make([]doeOut, len(points))
	failedAt := newStopIndex(len(points))
	helpers := fanOut(ctx, len(points), func(i int) {
		if failedAt.past(i) {
			return
		}
		o := &outs[i]
		var rec SimRecord
		o.smp, rec, o.err = e.runDoESim(ctx, b, points[i], &o.st)
		o.peak = rec.PeakC
		if o.err != nil {
			failedAt.stop(i)
		}
	})
	sp.SetAttr("helpers", helpers)
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		st.add(outs[i].st)
	}

	model := &spatialModel{classes: make(map[int]*spatialClass, len(plan))}
	worst := 0.0
	off := 0
	for _, class := range classes {
		cpts := plan[class]
		samples := make([]surrogate.Sample, len(cpts))
		peaks := make([]float64, len(cpts))
		for i := range cpts {
			samples[i], peaks[i] = outs[off+i].smp, outs[off+i].peak
		}
		off += len(cpts)
		cal, err := surrogate.Fit(samples, spatialHoldoutEvery)
		if err != nil {
			return nil, fmt.Errorf("org: spatial calibration (%d chiplets): %w", class, err)
		}
		cls := &spatialClass{cal: cal, kernels: make(map[plKey][]float64)}
		// End-to-end replay over every DoE point (training and holdout).
		worstE2E := 0.0
		for i, pt := range cpts {
			k := engineKey{bench: benchKeyOf(b), ek: evalKey{pl: keyOf(pt.pl), fIdx: pt.fIdx, cores: pt.p}}
			nocW, err := e.nocPower(b, pt.pl, power.FrequencySet[pt.fIdx], pt.p, k)
			if err != nil {
				return nil, err
			}
			pred, err := cls.predictPeakC(e, b, pt.pl, power.FrequencySet[pt.fIdx], pt.p, nocW)
			if err != nil {
				return nil, err
			}
			if d := math.Abs(pred - peaks[i]); d > worstE2E {
				worstE2E = d
			}
		}
		cls.cal.WorstCaseErrC = surrogate.SafetyFactor*worstE2E + surrogate.SafetyPadC
		model.classes[class] = cls
		worst = math.Max(worst, cls.cal.WorstCaseErrC)
	}
	// Publish the worst calibration error across models on this engine
	// (monotonic max; read lock-free by the metrics gauge).
	for {
		old := e.calWorstErrBits.Load()
		if math.Float64frombits(old) >= worst {
			break
		}
		if e.calWorstErrBits.CompareAndSwap(old, math.Float64bits(worst)) {
			break
		}
	}
	sp.SetAttr("doe_sims", len(points))
	sp.SetAttr("worst_case_err_c", worst)
	return model, nil
}

// runDoESim executes one design-of-experiments simulation. It mirrors
// runSim's pipeline but keeps the rich simulation result the memo discards:
// per-chiplet peak rises (from the thermal field) and per-chiplet converged
// powers, which are the surrogate's training targets. The scalar record is
// published into the sim memo so the search later hits instead of
// recomputing the same point.
func (e *Engine) runDoESim(ctx context.Context, b perf.Benchmark, pt doePoint, st *EvalStats) (surrogate.Sample, SimRecord, error) {
	op := power.FrequencySet[pt.fIdx]
	k := engineKey{bench: benchKeyOf(b), ek: evalKey{pl: keyOf(pt.pl), fIdx: pt.fIdx, cores: pt.p}}
	ctx, sp := obs.Start(ctx, "engine.doe_sim")
	sp.SetAttr("bench", b.Name)
	sp.SetAttr("chiplets", pt.pl.NumChiplets())
	sp.SetAttr("freq_mhz", op.FreqMHz)
	sp.SetAttr("active_cores", pt.p)
	sp.SetAttr("fidelity", FidelityFull.String())
	defer sp.End()

	nocW, err := e.nocPower(b, pt.pl, op, pt.p, k)
	if err != nil {
		return surrogate.Sample{}, SimRecord{}, err
	}
	cores, err := pt.pl.Cores()
	if err != nil {
		return surrogate.Sample{}, SimRecord{}, err
	}
	model, reused, err := e.model(pt.pl, k.ek.pl)
	if err != nil {
		return surrogate.Sample{}, SimRecord{}, err
	}
	if reused {
		e.modelReuses.Add(1)
	}
	active, err := power.MintempActive(pt.p)
	if err != nil {
		return surrogate.Sample{}, SimRecord{}, err
	}
	w := power.Workload{
		RefCoreW: b.RefCoreW,
		Op:       op,
		Active:   active,
		NoCW:     nocW,
		Leakage:  e.phys.Leakage,
	}
	res, err := power.SimulateCtx(ctx, model, cores, w, e.phys.SimOpts)
	if err != nil {
		return surrogate.Sample{}, SimRecord{}, err
	}

	n := pt.pl.NumChiplets()
	amb := e.phys.Thermal.AmbientC
	smp := surrogate.Sample{
		CentersMM: make([][2]float64, n),
		ChipWMM:   pt.pl.ChipletW,
		ChipHMM:   pt.pl.ChipletH,
		PowersW:   make([]float64, n),
		RiseC:     make([]float64, n),
	}
	for i, rc := range pt.pl.Chiplets {
		cx, cy := rc.Center()
		smp.CentersMM[i] = [2]float64{cx, cy}
		smp.RiseC[i] = res.Thermal.MaxOverRect(rc) - amb
	}
	nocPerCore := nocW / float64(pt.p)
	for _, c := range cores {
		id := c.Row*floorplan.CoresPerEdge + c.Col
		if !active[id] {
			continue
		}
		smp.PowersW[c.Chiplet] += power.CorePower(b.RefCoreW, op, res.CoreTemps[id], e.phys.Leakage) + nocPerCore
	}
	// The sample holds what it needs of the field: hand it back to the
	// model's solution pool, as runSim does.
	res.Thermal.Recycle()

	rec := newSimRecord(res, nocW, model)
	e.insertSim(k, rec)
	st.Sims++
	st.CGIterations += rec.CGIterations
	st.LeakageIterations += rec.LeakageIterations
	e.thermalSims.Add(1)
	e.cgIterations.Add(int64(rec.CGIterations))
	return smp, rec, nil
}

// insertSim publishes a DoE-computed record into the sim memo so later
// evaluations of the same point hit instead of recomputing (purity makes
// the insert safe). Existing entries — completed or in-flight — are left
// alone.
func (e *Engine) insertSim(k engineKey, rec SimRecord) {
	sh := e.shardOf(k)
	sh.mu.Lock()
	if _, ok := sh.sims[k]; !ok {
		if len(sh.sims) >= engineShardCap {
			e.evictCompletedLocked(sh)
		}
		ent := &simEntry{done: make(chan struct{}), rec: rec}
		close(ent.done)
		sh.sims[k] = ent
	}
	sh.mu.Unlock()
}

// chipletCountsCache memoizes the per-chiplet active-core split for each
// (r, p): the mintemp allocation is a fixed order, so the split is a pure
// function shared by every engine in the process.
var chipletCountsCache sync.Map // [2]int -> *[maxSpatialChiplets]int

func chipletActiveCounts(r, p int) (*[maxSpatialChiplets]int, error) {
	key := [2]int{r, p}
	if v, ok := chipletCountsCache.Load(key); ok {
		return v.(*[maxSpatialChiplets]int), nil
	}
	if r <= 0 || r*r > maxSpatialChiplets || floorplan.CoresPerEdge%r != 0 {
		return nil, fmt.Errorf("org: no core map for %dx%d chiplet grid", r, r)
	}
	active, err := power.MintempActive(p)
	if err != nil {
		return nil, err
	}
	per := floorplan.CoresPerEdge / r
	var counts [maxSpatialChiplets]int
	for id, on := range active {
		if !on {
			continue
		}
		row, col := id/floorplan.CoresPerEdge, id%floorplan.CoresPerEdge
		counts[(row/per)*r+col/per]++
	}
	v, _ := chipletCountsCache.LoadOrStore(key, &counts)
	return v.(*[maxSpatialChiplets]int), nil
}

// kernel returns the cached kernel matrix for a placement, computing and
// caching it on first sight. The cache key is the same half-millimeter
// placement identity the sim memo uses.
func (c *spatialClass) kernel(pl floorplan.Placement) []float64 {
	key := keyOf(pl)
	c.mu.Lock()
	if k, ok := c.kernels[key]; ok {
		c.mu.Unlock()
		return k
	}
	c.mu.Unlock()
	n := pl.NumChiplets()
	centers := make([][2]float64, n)
	for i, rc := range pl.Chiplets {
		cx, cy := rc.Center()
		centers[i] = [2]float64{cx, cy}
	}
	k := c.cal.Params.KernelMatrix(centers, pl.ChipletW, pl.ChipletH, make([]float64, n*n))
	c.mu.Lock()
	if len(c.kernels) >= spatialKernelCap {
		c.kernels = make(map[plKey][]float64)
	}
	c.kernels[key] = k
	c.mu.Unlock()
	return k
}

// predictPeakC is the spatial tier's forward pass: estimate per-chiplet
// powers from the active-core split with a fixed-iteration leakage
// refinement, superpose the fitted kernels, and return ambient plus the
// hottest chiplet rise. Zero allocations once the placement's kernel matrix
// is cached.
func (c *spatialClass) predictPeakC(e *Engine, b perf.Benchmark, pl floorplan.Placement, op power.DVFSPoint, p int, nocW float64) (float64, error) {
	n := pl.NumChiplets()
	counts, err := chipletActiveCounts(pl.R, p)
	if err != nil {
		return 0, err
	}
	k := c.kernel(pl)
	lm := e.phys.Leakage
	amb := e.phys.Thermal.AmbientC
	nocPerCore := nocW / float64(p)
	var powers, rise, temps [maxSpatialChiplets]float64
	for i := 0; i < n; i++ {
		temps[i] = lm.RefC
	}
	for it := 0; it < spatialLeakIters; it++ {
		for i := 0; i < n; i++ {
			powers[i] = float64(counts[i]) * (power.CorePower(b.RefCoreW, op, temps[i], lm) + nocPerCore)
		}
		c.cal.Params.PredictRise(k, powers[:n], rise[:n])
		for i := 0; i < n; i++ {
			temps[i] = amb + rise[i]
		}
	}
	peak := amb
	for i := 0; i < n; i++ {
		if temps[i] > peak {
			peak = temps[i]
		}
	}
	return peak, nil
}

// spatialPeakC consults the spatial tier for one evaluation: calibrate the
// benchmark's model on first use, then predict. ok reports whether the
// placement's class is covered by the model.
func (e *Engine) spatialPeakC(ctx context.Context, b perf.Benchmark, pl floorplan.Placement, op power.DVFSPoint, p int, k engineKey, st *EvalStats) (predC, boundC float64, ok bool, err error) {
	model, err := e.spatialFor(ctx, b, st)
	if err != nil {
		return 0, 0, false, err
	}
	cls, covered := model.classes[pl.NumChiplets()]
	if !covered {
		return 0, 0, false, nil
	}
	nocW, err := e.nocPower(b, pl, op, p, k)
	if err != nil {
		return 0, 0, false, err
	}
	pred, err := cls.predictPeakC(e, b, pl, op, p, nocW)
	if err != nil {
		return 0, 0, false, err
	}
	return pred, cls.cal.WorstCaseErrC, true, nil
}

// SpatialCalibration returns the calibration record for one chiplet-count
// class of a benchmark's spatial surrogate, running the DoE simulations on
// first use. The record's WorstCaseErrC is the safety-inflated end-to-end
// bound the escalation margin enforces.
func (e *Engine) SpatialCalibration(ctx context.Context, b perf.Benchmark, chiplets int) (surrogate.Calibration, error) {
	var st EvalStats
	model, err := e.spatialFor(ctx, b, &st)
	if err != nil {
		return surrogate.Calibration{}, err
	}
	cls, ok := model.classes[chiplets]
	if !ok {
		return surrogate.Calibration{}, fmt.Errorf("org: no spatial surrogate class for %d chiplets", chiplets)
	}
	return cls.cal, nil
}

// SpatialPredictPeakC returns the spatial surrogate's predicted peak
// temperature for one evaluation point, calibrating on first use. Unlike
// PeakCPolicy it never escalates: tooling (thermalsim -surrogate, the
// verify drift tier) uses it to compare the raw prediction against the full
// simulation.
func (e *Engine) SpatialPredictPeakC(ctx context.Context, b perf.Benchmark, pl floorplan.Placement, op power.DVFSPoint, p int) (float64, error) {
	fIdx, err := checkEval(op, p)
	if err != nil {
		return 0, err
	}
	k := engineKey{bench: benchKeyOf(b), ek: evalKey{pl: keyOf(pl), fIdx: fIdx, cores: p}}
	var st EvalStats
	pred, _, ok, err := e.spatialPeakC(ctx, b, pl, op, p, k, &st)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("org: placement class %d not covered by the spatial surrogate", pl.NumChiplets())
	}
	return pred, nil
}
