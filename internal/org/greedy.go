package org

import (
	"context"
	"math"
	"math/rand"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/obs"
	"chiplet25d/internal/power"
)

// spacePoint is a point in the 16-chiplet spacing design space at a fixed
// interposer edge, in half-millimeter units: s1 = i1 * 0.5, s2 = i2 * 0.5,
// s3 derived from Eq. (9).
type spacePoint struct{ i1, i2 int }

// spacingSpace describes the discrete feasible (s1, s2) grid at one edge.
type spacingSpace struct {
	edge   float64
	spanHM int // S = 2*s1 + s3 in half-millimeters
	max1   int // s1 ≤ S/2
	max2   int // Eq. (10) at fixed edge: s2 ≤ S/2
}

func newSpacingSpace(edge float64) (spacingSpace, bool) {
	span := floorplan.SpacingSpan(16, edge)
	if span < -1e-9 {
		return spacingSpace{}, false
	}
	hm := int(math.Floor(span/floorplan.SpacingStepMM + 1e-9))
	return spacingSpace{edge: edge, spanHM: hm, max1: hm / 2, max2: hm / 2}, true
}

func (sp spacingSpace) contains(p spacePoint) bool {
	return p.i1 >= 0 && p.i1 <= sp.max1 && p.i2 >= 0 && p.i2 <= sp.max2
}

// placementAt materializes the placement for a design-space point; ok is
// false when the point is geometrically invalid.
func (sp spacingSpace) placementAt(p spacePoint) (floorplan.Placement, bool) {
	s1 := float64(p.i1) * floorplan.SpacingStepMM
	s2 := float64(p.i2) * floorplan.SpacingStepMM
	pl, err := floorplan.PaperOrgForInterposer(16, sp.edge, s1, s2)
	if err != nil {
		return floorplan.Placement{}, false
	}
	if err := pl.Validate(); err != nil {
		return floorplan.Placement{}, false
	}
	return pl, true
}

// neighborMoves are the six moves of the constrained greedy walk: varying
// s1 by ±0.5 mm (with s3 absorbing ∓1.0 mm to hold the interposer size and
// hence the cost bucket fixed), varying s2 by ±0.5 mm, and the two
// diagonal combinations.
var neighborMoves = [6]spacePoint{
	{+1, 0}, {-1, 0}, {0, +1}, {0, -1}, {+1, +1}, {-1, -1},
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-mixed 64-bit hash used to derive independent RNG streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Salts separating the RNG stream families drawn from one root seed.
const (
	saltGreedy = 0x67726565 // "gree"
	saltAnneal = 0x616e6e65 // "anne"
)

// deriveSeed mixes the root seed with the coordinates of one search unit
// (salt, chiplet count, interposer edge in half-mm, DVFS index, active
// cores, restart index) into an independent RNG seed. Deriving per-restart
// streams — instead of sharing one sequential generator — is what makes the
// parallel multi-start search bit-identical to the serial one: restart r
// draws the same numbers no matter which worker runs it, or when.
func deriveSeed(root int64, salt, n, edgeHM, fIdx, p, restart int) int64 {
	h := splitmix64(uint64(root))
	for _, v := range [...]int{salt, n, edgeHM, fIdx, p, restart} {
		h = splitmix64(h ^ uint64(int64(v)))
	}
	return int64(h >> 1) // non-negative
}

// restartResult is one restart's outcome in the parallel multi-start driver.
type restartResult struct {
	pl    floorplan.Placement
	peak  float64
	found bool
	err   error
	ran   bool
}

// terminal reports whether a serial search would have stopped at this
// restart (success or error).
func (r restartResult) terminal() bool { return r.found || r.err != nil }

// FindPlacement searches for any placement of n chiplets on a square
// interposer of the given edge meeting the temperature threshold at
// (op, p), using the paper's multi-start greedy (Sec. III-D). It returns
// the placement, its peak temperature, and whether one was found.
//
// With Config.SearchWorkers > 1 the restarts run concurrently over the
// shared engine memo; the result is bit-identical to the serial search
// (see the Searcher determinism contract).
func (s *Searcher) FindPlacement(n int, edgeMM float64, op power.DVFSPoint, p int) (floorplan.Placement, float64, bool, error) {
	return s.findPlacement(s.ctx, n, edgeMM, op, p)
}

func (s *Searcher) findPlacement(ctx context.Context, n int, edgeMM float64, op power.DVFSPoint, p int) (outPl floorplan.Placement, outPeak float64, outFound bool, outErr error) {
	ctx, fsp := obs.Start(ctx, "org.find_placement")
	fsp.SetAttr("n", n)
	fsp.SetAttr("edge_mm", edgeMM)
	fsp.SetAttr("freq_mhz", op.FreqMHz)
	fsp.SetAttr("active_cores", p)
	defer func() {
		fsp.SetAttr("found", outFound)
		fsp.End()
	}()
	if n == 4 {
		pl, err := floorplan.PaperOrgForInterposer(4, edgeMM, 0, 0)
		if err != nil {
			return floorplan.Placement{}, 0, false, nil // edge too small: no placement exists
		}
		if err := pl.Validate(); err != nil {
			return floorplan.Placement{}, 0, false, nil
		}
		peak, err := s.peakCtx(ctx, s.cfg.Benchmark, pl, op, p)
		if err != nil {
			return floorplan.Placement{}, 0, false, err
		}
		return pl, peak, peak <= s.cfg.ThresholdC, nil
	}
	sp, ok := newSpacingSpace(edgeMM)
	if !ok {
		return floorplan.Placement{}, 0, false, nil
	}
	edgeHM := int(math.Round(edgeMM * 2))
	fIdx := fIdxOf(op)
	starts := s.cfg.Starts

	runOne := func(restart int) restartResult {
		seed := deriveSeed(s.cfg.Seed, saltGreedy, n, edgeHM, fIdx, p, restart)
		s.audit.Add(AuditEvent{
			Kind: AuditRestartSeeded, Restart: restart, Seed: seed,
			N: n, EdgeMM: edgeMM, FreqMHz: op.FreqMHz, Cores: p,
		})
		rng := rand.New(rand.NewSource(seed))
		pl, peak, found, err := s.runRestart(ctx, sp, op, p, rng, restart)
		return restartResult{pl: pl, peak: peak, found: found, err: err, ran: true}
	}

	// Restarts are the unit of parallelism, run by the caller plus the
	// helpers fanOut borrows (at most SearchWorkers−1). On a 2-CPU Xeon
	// (num_cpu = 2) BenchmarkMultiStartSearch took 3.35–4.14 s serial and
	// 2.31–2.53 s on two workers (medians 3.74 / 2.38 s, 1.57x), while
	// splitting one solve across kernel threads stayed inside the noise and
	// was deleted (DESIGN.md "Worker budget").
	//
	// Serial semantics stop at the first terminal restart (found or error),
	// so the winner is the minimum terminal index; restarts above the
	// current minimum can no longer affect the outcome and are skipped.
	// Every skipped index is strictly above some terminal index, so the
	// ascending scan below always reaches the true winner before any
	// skipped slot. Without helpers this is exactly the serial loop.
	results := make([]restartResult, starts)
	stopAt := newStopIndex(starts)
	fanOut(ctx, starts, func(restart int) {
		if stopAt.past(restart) {
			return // cannot beat an earlier terminal restart
		}
		r := runOne(restart)
		results[restart] = r
		if r.terminal() {
			stopAt.stop(restart)
		}
	})
	for restart := 0; restart < starts; restart++ {
		r := results[restart]
		if !r.ran {
			continue
		}
		if r.err != nil {
			return floorplan.Placement{}, 0, false, r.err
		}
		if r.found {
			return r.pl, r.peak, true, nil
		}
	}
	return floorplan.Placement{}, 0, false, nil
}

// runRestart walks one greedy descent from its derived random start; found
// is true when it reached a feasible placement. The visited map is restart-
// local (a trajectory cache); cross-restart and cross-caller sharing happens
// in the engine memo, which all evaluations go through.
func (s *Searcher) runRestart(ctx context.Context, sp spacingSpace, op power.DVFSPoint, p int, rng *rand.Rand, restart int) (outPl floorplan.Placement, outPeak float64, outFound bool, outErr error) {
	_, rsp := obs.Start(ctx, "org.restart")
	rsp.SetAttr("restart", restart)
	steps, moves := 0, 0
	defer func() {
		rsp.SetAttr("steps", steps)
		rsp.SetAttr("moves_evaluated", moves)
		rsp.SetAttr("found", outFound)
		rsp.End()
	}()
	visited := make(map[spacePoint]float64)
	eval := func(pt spacePoint) (float64, error) {
		if v, seen := visited[pt]; seen {
			return v, nil
		}
		pl, valid := sp.placementAt(pt)
		if !valid {
			visited[pt] = math.Inf(1)
			return math.Inf(1), nil
		}
		peak, err := s.peakCtx(ctx, s.cfg.Benchmark, pl, op, p)
		if err != nil {
			return 0, err
		}
		visited[pt] = peak
		return peak, nil
	}
	auditPoint := func(kind string, step int, pt spacePoint, peak float64, reason string) {
		s.audit.Add(AuditEvent{
			Kind: kind, Restart: restart, Step: step,
			S1MM:  float64(pt.i1) * floorplan.SpacingStepMM,
			S2MM:  float64(pt.i2) * floorplan.SpacingStepMM,
			PeakC: peak, Reason: reason,
		})
	}
	const maxWalk = 256
	cur := spacePoint{i1: rng.Intn(sp.max1 + 1), i2: rng.Intn(sp.max2 + 1)}
	curPeak, err := eval(cur)
	if err != nil {
		return floorplan.Placement{}, 0, false, err
	}
	if curPeak <= s.cfg.ThresholdC {
		pl, _ := sp.placementAt(cur)
		auditPoint(AuditFeasibleFound, 0, cur, curPeak, "start_point_feasible")
		return pl, curPeak, true, nil
	}
	for ; steps < maxWalk; steps++ {
		// Visit the six neighbors per the configured policy: in random
		// order moving to the first cooler one (the paper's policy,
		// avoiding fixed-order bias), or steepest-descent for the
		// ablation. Either way, accept immediately on feasibility.
		perm := rng.Perm(len(neighborMoves))
		moved := false
		bestNb, bestPeak := cur, curPeak
		for _, mi := range perm {
			mv := neighborMoves[mi]
			nb := spacePoint{i1: cur.i1 + mv.i1, i2: cur.i2 + mv.i2}
			if !sp.contains(nb) {
				continue
			}
			moves++
			peak, err := eval(nb)
			if err != nil {
				return floorplan.Placement{}, 0, false, err
			}
			if peak <= s.cfg.ThresholdC {
				pl, _ := sp.placementAt(nb)
				auditPoint(AuditFeasibleFound, steps, nb, peak, "neighbor_feasible")
				return pl, peak, true, nil
			}
			if peak < bestPeak {
				bestNb, bestPeak = nb, peak
				if s.cfg.NeighborPolicy == RandomNeighbor {
					break
				}
			}
		}
		if bestPeak < curPeak {
			cur, curPeak = bestNb, bestPeak
			moved = true
			auditPoint(AuditMoveAccepted, steps, cur, curPeak, "")
		}
		if !moved {
			auditPoint(AuditMoveRejected, steps, cur, curPeak, "local_minimum")
			break // local minimum: next random start
		}
	}
	return floorplan.Placement{}, curPeak, false, nil
}

// FindPlacementExhaustive scans the full (s1, s2) grid at the given edge
// and returns the feasible placement with the lowest peak temperature, for
// validating the greedy search. For n == 4 the space is the single derived
// placement. With Config.SearchWorkers > 1 the grid points are evaluated
// concurrently over the engine (which deduplicates and memoizes); the
// reduction is a serial ascending scan, so the chosen placement is
// independent of worker count.
func (s *Searcher) FindPlacementExhaustive(n int, edgeMM float64, op power.DVFSPoint, p int) (outPl floorplan.Placement, outPeak float64, outFound bool, outErr error) {
	if n == 4 {
		return s.FindPlacement(4, edgeMM, op, p)
	}
	sp, ok := newSpacingSpace(edgeMM)
	if !ok {
		return floorplan.Placement{}, 0, false, nil
	}
	ctx, esp := obs.Start(s.ctx, "org.exhaustive_scan")
	esp.SetAttr("n", n)
	esp.SetAttr("edge_mm", edgeMM)
	esp.SetAttr("grid_points", (sp.max1+1)*(sp.max2+1))
	defer func() {
		esp.SetAttr("found", outFound)
		esp.End()
	}()
	var pls []floorplan.Placement
	for i1 := 0; i1 <= sp.max1; i1++ {
		for i2 := 0; i2 <= sp.max2; i2++ {
			if pl, valid := sp.placementAt(spacePoint{i1, i2}); valid {
				pls = append(pls, pl)
			}
		}
	}
	// Points above the lowest failed one are skipped; every point below it
	// runs, so the ascending scan below returns the error the serial loop
	// would have.
	peaks := make([]float64, len(pls))
	errs := make([]error, len(pls))
	failedAt := newStopIndex(len(pls))
	fanOut(ctx, len(pls), func(i int) {
		if failedAt.past(i) {
			return
		}
		peaks[i], errs[i] = s.peakCtx(ctx, s.cfg.Benchmark, pls[i], op, p)
		if errs[i] != nil {
			failedAt.stop(i)
		}
	})
	bestPeak := math.Inf(1)
	var bestPl floorplan.Placement
	found := false
	for i, pl := range pls {
		if errs[i] != nil {
			return floorplan.Placement{}, 0, false, errs[i]
		}
		if peaks[i] <= s.cfg.ThresholdC && peaks[i] < bestPeak {
			bestPeak, bestPl, found = peaks[i], pl, true
		}
	}
	return bestPl, bestPeak, found, nil
}
