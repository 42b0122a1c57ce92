package main

import (
	"encoding/json"
	"fmt"
)

// The response shapes the harness reads, mirroring chipletd's JSON.

type solveResp struct {
	PeakC  float64   `json:"peak_c"`
	Cached bool      `json:"cached"`
	Trace  *traceDoc `json:"trace"`
}

type searchResp struct {
	Feasible bool `json:"feasible"`
	Best     *struct {
		Chiplets    int     `json:"chiplets"`
		S1MM        float64 `json:"s1_mm"`
		S2MM        float64 `json:"s2_mm"`
		S3MM        float64 `json:"s3_mm"`
		FreqMHz     float64 `json:"freq_mhz"`
		ActiveCores int     `json:"active_cores"`
		PeakC       float64 `json:"peak_c"`
	} `json:"best"`
	ThermalSims          int       `json:"thermal_sims"`
	SurrogateHits        int       `json:"surrogate_hits"`
	SpatialSurrogateHits int       `json:"spatial_surrogate_hits"`
	EngineMemoHits       int       `json:"engine_memo_hits"`
	Trace                *traceDoc `json:"trace"`
}

type batchResp struct {
	Items []struct {
		Status    int        `json:"status"`
		Error     string     `json:"error"`
		Coalesced bool       `json:"coalesced"`
		Solve     *solveResp `json:"solve"`
		TCO       *struct {
			Elab struct {
				Feasible       bool    `json:"feasible"`
				Reason         string  `json:"reason"`
				LanesPerServer int     `json:"lanes_per_server"`
				TCOPerGIPSYear float64 `json:"tco_per_gips_year"`
			} `json:"elab"`
			Fidelity  string  `json:"fidelity"`
			PredPeakC float64 `json:"pred_peak_c"`
		} `json:"tco"`
	} `json:"items"`
	Total      int `json:"total"`
	UniqueKeys int `json:"unique_keys"`
	Coalesced  int `json:"coalesced"`
	CacheHits  int `json:"cache_hits"`
}

// searchCount is the work one search reports.
type searchCount struct {
	class                    string
	sims, evals, spatialHits int
}

// answer is what one 200 response contributes to a run.
type answer struct {
	class    string // latency class
	items    int    // work items answered
	trace    *traceDoc
	problems []string // failed answer checks

	// Prefix detail: the digest line, the solves to recompute, the work
	// counts.
	line   string
	refs   []refSolve
	search *searchCount
	batch  *batchResp
}

// parseAnswer decodes and checks a 200 response to jb, the idx-th job of
// its lane. detail asks for the prefix detail.
//
// Checks: a feasible search's winner must respect the request's
// threshold; every batch item must answer 200. Single solves and the
// sampled batch solve items become refSolves for the reference check.
func parseAnswer(jb job, idx int, data []byte, detail bool) answer {
	a := answer{class: jb.class, items: 1}
	bad := func(format string, args ...any) { a.problems = append(a.problems, fmt.Sprintf(format, args...)) }
	switch jb.path {
	case solvePath:
		var r solveResp
		if err := json.Unmarshal(data, &r); err != nil {
			bad("decode solve: %v", err)
			return a
		}
		a.trace = r.Trace
		if r.Cached {
			a.class = "warm"
		}
		a.line = roundC(r.PeakC)
		if !r.Cached {
			a.refs = []refSolve{{order: [2]int{idx, 0}, req: *jb.solve, servedC: r.PeakC}}
		}
	case searchPath:
		var r searchResp
		if err := json.Unmarshal(data, &r); err != nil {
			bad("decode search: %v", err)
			return a
		}
		a.trace = r.Trace
		a.line = "infeasible"
		if r.Feasible {
			b := r.Best
			if b == nil {
				bad("feasible search without a winner")
				return a
			}
			if b.PeakC > jb.thresholdC {
				bad("search winner peaks at %.3f °C, above its %.2f °C threshold", b.PeakC, jb.thresholdC)
			}
			a.line = fmt.Sprintf("n=%d s=%g/%g/%g f=%g p=%d peak=%s",
				b.Chiplets, b.S1MM, b.S2MM, b.S3MM, b.FreqMHz, b.ActiveCores, roundC(b.PeakC))
		}
		a.search = &searchCount{
			class:       jb.class,
			sims:        r.ThermalSims,
			evals:       r.ThermalSims + r.SurrogateHits + r.EngineMemoHits,
			spatialHits: r.SpatialSurrogateHits,
		}
	case batchPath:
		var r batchResp
		if err := json.Unmarshal(data, &r); err != nil {
			bad("decode batch: %v", err)
			return a
		}
		if len(r.Items) != r.Total {
			bad("batch answered %d of %d items", len(r.Items), r.Total)
		}
		a.items = r.Total
		a.batch = &r
		var line []byte
		for i, it := range r.Items {
			switch {
			case it.Status != 200:
				bad("batch item %d: status %d: %s", i, it.Status, it.Error)
			case it.Solve != nil:
				line = fmt.Appendf(line, "%s ", roundC(it.Solve.PeakC))
				if ref, ok := jb.refItems[i]; ok && !it.Coalesced {
					a.refs = append(a.refs, refSolve{order: [2]int{idx, i}, req: ref, servedC: it.Solve.PeakC})
				}
			case it.TCO != nil:
				e := it.TCO.Elab
				line = fmt.Appendf(line, "%v/%s/%d/%.6g/%s/%s ", e.Feasible, e.Reason, e.LanesPerServer,
					e.TCOPerGIPSYear, it.TCO.Fidelity, roundC(it.TCO.PredPeakC))
			}
		}
		a.line = string(line)
	}
	if !detail {
		a.line, a.refs, a.search, a.batch = "", nil, nil, nil
	}
	return a
}
