package org

import (
	"sort"

	"chiplet25d/internal/power"
)

// ParetoFront computes the cost-performance Pareto frontier of 2.5D
// organizations under the configured threshold: for every (chiplet count,
// interposer size) bucket the maximum feasible IPS is found, and the
// non-dominated set (no other organization is simultaneously cheaper and
// faster) is returned sorted by ascending cost. This is the designer's view
// behind Figs. 6 and 7: every (α, β) choice of Eq. (5) selects a point on
// this frontier.
func (s *Searcher) ParetoFront() ([]Organization, error) {
	base, err := s.Baseline()
	if err != nil {
		return nil, err
	}
	type cand struct {
		fIdx, p int
		ips     float64
	}
	var cands []cand
	for fIdx, op := range power.FrequencySet {
		for _, p := range power.ActiveCoreCounts {
			cands = append(cands, cand{fIdx, p, s.cfg.Benchmark.IPS(op, p)})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ips > cands[j].ips })

	var all []Organization
	for _, n := range s.cfg.ChipletCounts {
		for _, edge := range s.edges(n) {
			cost := s.cfg.CostParams.Cost25DForInterposer(n, edge)
			if s.cfg.MaxNormCost > 0 && base.CostUSD > 0 && cost/base.CostUSD > s.cfg.MaxNormCost {
				continue
			}
			for _, c := range cands {
				op := power.FrequencySet[c.fIdx]
				pl, peak, found, err := s.FindPlacement(n, edge, op, c.p)
				if err != nil {
					return nil, err
				}
				if !found {
					continue
				}
				o := Organization{
					N: n, S1: pl.S1, S2: pl.S2, S3: pl.S3,
					InterposerMM: pl.W, Op: op, ActiveCores: c.p,
					PeakC: peak, IPS: c.ips, CostUSD: cost,
					Placement: pl,
				}
				if base.Feasible {
					o.NormPerf = c.ips / base.BestIPS
					o.NormCost = cost / base.CostUSD
				}
				all = append(all, o)
				break // max IPS for this bucket found
			}
		}
	}
	return paretoFilter(all), nil
}

// paretoFilter keeps the non-dominated organizations: sorted by ascending
// cost, an organization survives only if it is strictly faster than every
// cheaper survivor.
func paretoFilter(all []Organization) []Organization {
	sort.Slice(all, func(i, j int) bool {
		if all[i].CostUSD != all[j].CostUSD {
			return all[i].CostUSD < all[j].CostUSD
		}
		return all[i].IPS > all[j].IPS
	})
	var front []Organization
	bestIPS := 0.0
	for _, o := range all {
		if o.IPS > bestIPS+1e-9 {
			front = append(front, o)
			bestIPS = o.IPS
		}
	}
	return front
}
