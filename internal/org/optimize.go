package org

import (
	"fmt"
	"math"
	"sort"

	"chiplet25d/internal/cost"
	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/obs"
	"chiplet25d/internal/power"
)

// combo is one (f, p, n, interposer-edge) combination of step 2 of the
// paper's approach; its objective value uses the cost of that edge.
type combo struct {
	fIdx int
	p    int
	n    int
	edge float64
	ips  float64
	cost float64
	obj  float64
	// elab is the server elaboration behind obj under ObjectiveTCO (nil
	// under Eq. (5)); the winner's copy lands in Organization.TCO.
	elab *cost.ServerElab
}

// edges returns the discretized interposer edges for a chiplet count,
// skipping edges too small to fit the chiplets plus guard bands.
func (s *Searcher) edges(n int) []float64 {
	var out []float64
	for e := s.cfg.InterposerMinMM; e <= s.cfg.InterposerMaxMM+1e-9; e += s.cfg.InterposerStepMM {
		if floorplan.SpacingSpan(n, e) < -1e-9 {
			continue
		}
		out = append(out, e)
	}
	return out
}

// buildCombos enumerates and sorts the (f, p, C_2.5D) combinations by
// ascending objective value (step 2). Ties break toward cheaper, then
// faster, then fewer chiplets — a deterministic refinement of the paper's
// unspecified tie order.
func (s *Searcher) buildCombos(base Baseline) []combo {
	tcoMode := s.cfg.ObjectiveMode == ObjectiveTCO
	var combos []combo
	for fIdx, op := range power.FrequencySet {
		for _, p := range power.ActiveCoreCounts {
			ips := s.cfg.Benchmark.IPS(op, p)
			// Under ObjectiveTCO the lane draws the a-priori nominal power
			// of (f, p): deterministic and temperature-independent, so the
			// ranking never depends on simulation order.
			laneW := 0.0
			if tcoMode {
				laneW = power.TotalNominal(s.cfg.Benchmark.RefCoreW, p, op, s.cfg.Leakage)
			}
			for _, n := range s.cfg.ChipletCounts {
				for _, e := range s.edges(n) {
					c := s.cfg.CostParams.Cost25DForInterposer(n, e)
					if s.cfg.MaxNormCost > 0 && c/base.CostUSD > s.cfg.MaxNormCost {
						continue
					}
					cb := combo{
						fIdx: fIdx, p: p, n: n, edge: e,
						ips: ips, cost: c,
					}
					if tcoMode {
						elab, err := s.cfg.TCO.ElaborateServer(s.cfg.CostParams, cost.LaneDesign{
							Chiplets:         n,
							InterposerEdgeMM: e,
							LanePowerW:       laneW,
							LaneGIPS:         ips,
						})
						// Geometry errors and heatsink/budget rejections both
						// remove the combination; the thermal walk never sees
						// lanes the datacenter could not cool or power.
						if err != nil || !elab.Feasible {
							continue
						}
						cb.obj = elab.TCOPerGIPSYear
						cb.elab = &elab
					} else {
						cb.obj = s.cfg.Objective.Alpha*base.BestIPS/ips +
							s.cfg.Objective.Beta*c/base.CostUSD
					}
					combos = append(combos, cb)
				}
			}
		}
	}
	sort.Slice(combos, func(i, j int) bool {
		a, b := combos[i], combos[j]
		if a.obj != b.obj {
			return a.obj < b.obj
		}
		if a.cost != b.cost {
			return a.cost < b.cost
		}
		if a.ips != b.ips {
			return a.ips > b.ips
		}
		if a.n != b.n {
			return a.n < b.n
		}
		return a.edge < b.edge
	})
	return combos
}

type fpnKey struct {
	fIdx, p, n int
}

// placementFinder abstracts greedy vs exhaustive placement search.
type placementFinder func(n int, edgeMM float64, op power.DVFSPoint, p int) (floorplan.Placement, float64, bool, error)

// Optimize runs the full multi-start greedy optimization (steps 1-3) and
// returns the first — hence objective-optimal — feasible organization.
func (s *Searcher) Optimize() (Result, error) {
	return s.optimize(s.FindPlacement)
}

// OptimizeExhaustive replaces the greedy placement search with the full
// grid scan; used to validate the greedy (Sec. III-D).
func (s *Searcher) OptimizeExhaustive() (Result, error) {
	return s.optimize(s.FindPlacementExhaustive)
}

func (s *Searcher) optimize(find placementFinder) (Result, error) {
	_, osp := obs.Start(s.ctx, "org.optimize")
	defer osp.End()
	base, err := s.Baseline()
	if err != nil {
		return Result{}, err
	}
	res := Result{Baseline: base}
	if !base.Feasible {
		return Result{}, fmt.Errorf("org: baseline single chip has no feasible (f, p) under %.1f °C; cannot normalize Eq. (5)", s.cfg.ThresholdC)
	}
	combos := s.buildCombos(base)
	// Monotonicity pruning: for a fixed (f, p, n), shrinking the interposer
	// only removes spacing, so once an edge fails, all smaller edges fail.
	failEdge := make(map[fpnKey]float64)
	for _, cb := range combos {
		key := fpnKey{cb.fIdx, cb.p, cb.n}
		if fe, ok := failEdge[key]; ok && cb.edge <= fe+1e-9 {
			continue
		}
		res.CombosTried++
		op := power.FrequencySet[cb.fIdx]
		pl, peak, found, err := find(cb.n, cb.edge, op, cb.p)
		if err != nil {
			return Result{}, err
		}
		if !found {
			if fe, ok := failEdge[key]; !ok || cb.edge > fe {
				failEdge[key] = cb.edge
			}
			continue
		}
		res.Feasible = true
		res.Best = Organization{
			N:            cb.n,
			S1:           pl.S1,
			S2:           pl.S2,
			S3:           pl.S3,
			InterposerMM: pl.W,
			Op:           op,
			ActiveCores:  cb.p,
			PeakC:        peak,
			IPS:          cb.ips,
			CostUSD:      cb.cost,
			NormPerf:     cb.ips / base.BestIPS,
			NormCost:     cb.cost / base.CostUSD,
			ObjValue:     cb.obj,
			TCO:          cb.elab,
			Placement:    pl,
		}
		break
	}
	res.ThermalSims = s.ThermalSims()
	res.ScalarSurrogateHits = s.ScalarSurrogateHits()
	res.SpatialSurrogateHits = s.SpatialSurrogateHits()
	res.SurrogateHits = res.ScalarSurrogateHits + res.SpatialSurrogateHits
	osp.SetAttr("combos_tried", res.CombosTried)
	osp.SetAttr("thermal_sims", res.ThermalSims)
	osp.SetAttr("surrogate_hits", res.SurrogateHits)
	osp.SetAttr("scalar_surrogate_hits", res.ScalarSurrogateHits)
	osp.SetAttr("spatial_surrogate_hits", res.SpatialSurrogateHits)
	osp.SetAttr("engine_memo_hits", s.EngineHits())
	osp.SetAttr("engine_dedup_waits", s.EngineDedupWaits())
	osp.SetAttr("feasible", res.Feasible)
	return res, nil
}

// MaxIPSAtEdge returns the maximum feasible IPS over all (f, p, n)
// combinations at a fixed interposer edge, the Fig. 6 quantity. The second
// return is the achieving organization; found is false when nothing fits.
func (s *Searcher) MaxIPSAtEdge(edgeMM float64) (Organization, bool, error) {
	base, err := s.Baseline()
	if err != nil {
		return Organization{}, false, err
	}
	type cand struct {
		fIdx, p int
		ips     float64
	}
	var cands []cand
	for fIdx := range power.FrequencySet {
		for _, p := range power.ActiveCoreCounts {
			cands = append(cands, cand{fIdx, p, s.cfg.Benchmark.IPS(power.FrequencySet[fIdx], p)})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ips > cands[j].ips })
	for _, c := range cands {
		op := power.FrequencySet[c.fIdx]
		for _, n := range s.cfg.ChipletCounts {
			if floorplan.SpacingSpan(n, edgeMM) < -1e-9 {
				continue
			}
			pl, peak, found, err := s.FindPlacement(n, edgeMM, op, c.p)
			if err != nil {
				return Organization{}, false, err
			}
			if !found {
				continue
			}
			cst := s.cfg.CostParams.Cost25DForInterposer(n, edgeMM)
			o := Organization{
				N: n, S1: pl.S1, S2: pl.S2, S3: pl.S3,
				InterposerMM: pl.W, Op: op, ActiveCores: c.p,
				PeakC: peak, IPS: c.ips, CostUSD: cst,
				Placement: pl,
			}
			if base.Feasible {
				o.NormPerf = c.ips / base.BestIPS
				o.NormCost = cst / base.CostUSD
			}
			return o, true, nil
		}
	}
	return Organization{}, false, nil
}

// MinObjectiveAtEdgeWith returns the minimum Eq. (5) value achievable at a
// fixed interposer edge for an explicit (α, β) pair, the Fig. 7 quantity.
// The weights are an argument so one searcher (and its memoized
// simulations) serves several weight choices, as Fig. 7 plots.
func (s *Searcher) MinObjectiveAtEdgeWith(o Objective, edgeMM float64) (float64, Organization, bool, error) {
	if err := o.Validate(); err != nil {
		return 0, Organization{}, false, err
	}
	base, err := s.Baseline()
	if err != nil {
		return 0, Organization{}, false, err
	}
	if !base.Feasible {
		return 0, Organization{}, false, fmt.Errorf("org: infeasible baseline")
	}
	type cand struct {
		fIdx, p int
		n       int
		obj     float64
		ips     float64
		cost    float64
	}
	var cands []cand
	for fIdx, op := range power.FrequencySet {
		for _, p := range power.ActiveCoreCounts {
			ips := s.cfg.Benchmark.IPS(op, p)
			for _, n := range s.cfg.ChipletCounts {
				if floorplan.SpacingSpan(n, edgeMM) < -1e-9 {
					continue
				}
				c := s.cfg.CostParams.Cost25DForInterposer(n, edgeMM)
				cands = append(cands, cand{
					fIdx: fIdx, p: p, n: n,
					obj:  o.Alpha*base.BestIPS/ips + o.Beta*c/base.CostUSD,
					ips:  ips,
					cost: c,
				})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].obj < cands[j].obj })
	for _, c := range cands {
		op := power.FrequencySet[c.fIdx]
		pl, peak, found, err := s.FindPlacement(c.n, edgeMM, op, c.p)
		if err != nil {
			return 0, Organization{}, false, err
		}
		if !found {
			continue
		}
		return c.obj, Organization{
			N: c.n, S1: pl.S1, S2: pl.S2, S3: pl.S3,
			InterposerMM: pl.W, Op: op, ActiveCores: c.p,
			PeakC: peak, IPS: c.ips, CostUSD: c.cost,
			NormPerf: c.ips / base.BestIPS, NormCost: c.cost / base.CostUSD,
			ObjValue: c.obj, Placement: pl,
		}, true, nil
	}
	return math.Inf(1), Organization{}, false, nil
}
