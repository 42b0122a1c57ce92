package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"time"

	"chiplet25d/internal/cost"
	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/obs"
	"chiplet25d/internal/org"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
)

// ---------------------------------------------------------------------------
// POST /v1/cost/tco

// Fidelity labels for TCOResponse.Fidelity and the chipletd_tco_evals_total
// metric: an elaboration is either pure arithmetic or refined by the
// spatial-surrogate thermal check.
const (
	fidelityAnalytic = "analytic"
	fidelitySpatial  = "spatial"
)

// TCORequest asks for one server/datacenter TCO elaboration. The workload
// comes in exactly one of two forms: an explicit lane draw (lane_power_w +
// lane_gips), or a benchmark operating point (benchmark + freq_mhz + cores)
// whose nominal power and throughput the server derives from the paper's
// models. All datacenter knobs default to cost.DefaultTCOParams.
type TCORequest struct {
	Chiplets     int     `json:"chiplets"`
	InterposerMM float64 `json:"interposer_mm,omitempty"` // 0 = minimum edge
	TechNode     string  `json:"tech_node,omitempty"`     // "" = 45nm base

	// Explicit workload (base-node watts; the node's PowerScale applies).
	LanePowerW float64 `json:"lane_power_w,omitempty"`
	LaneGIPS   float64 `json:"lane_gips,omitempty"`

	// Benchmark workload.
	Benchmark string  `json:"benchmark,omitempty"`
	FreqMHz   float64 `json:"freq_mhz,omitempty"`
	Cores     int     `json:"cores,omitempty"`

	// Datacenter knob overrides.
	PUE                *float64 `json:"pue,omitempty"`
	EnergyUSDPerKWH    *float64 `json:"energy_usd_per_kwh,omitempty"`
	DepreciationYears  *float64 `json:"depreciation_years,omitempty"`
	ServerPowerBudgetW *float64 `json:"server_power_budget_w,omitempty"`
	MaxLanesPerServer  *int     `json:"max_lanes_per_server,omitempty"`

	// Manufacturing overrides (the same knobs as POST /v1/cost).
	D0PerCM2    *float64 `json:"d0_per_cm2,omitempty"`
	BondCostUSD *float64 `json:"bond_cost_usd,omitempty"`

	// ThermalCheck refines the analytic heatsink feasibility with the
	// engine's spatial compact-model surrogate: the lane's operating point
	// is predicted on the paper's geometry and rejected (Reason "thermal")
	// when the predicted peak exceeds the heatsink's max case temperature.
	// Requires a benchmark workload and chiplets 1, 4, or 16 (the spatial
	// surrogate's calibrated classes).
	ThermalCheck bool `json:"thermal_check,omitempty"`
	GridN        int  `json:"grid_n,omitempty"` // calibration grid, default 64
}

// TCOResponse reports one elaboration. The embedded ServerElab carries the
// design's full cost breakdown whether or not it is feasible.
type TCOResponse struct {
	Elab     cost.ServerElab `json:"elab"`
	Fidelity string          `json:"fidelity"`
	// PredPeakC and ThresholdC report the spatial thermal check (present
	// only at fidelity "spatial").
	PredPeakC  float64 `json:"pred_peak_c,omitempty"`
	ThresholdC float64 `json:"threshold_c,omitempty"`
	Served
}

// tcoSpec is a fully validated TCO request: resolved model constants plus
// the optional spatial-check coordinates.
type tcoSpec struct {
	tco   cost.TCOParams
	costP cost.Params
	lane  cost.LaneDesign

	// Spatial thermal check (check == false leaves the rest zero).
	check bool
	bench perf.Benchmark
	op    power.DVFSPoint
	fIdx  int
	cores int
	gridN int
	pl    floorplan.Placement
}

func (req *TCORequest) resolve(maxGridN int) (*tcoSpec, error) {
	sp := &tcoSpec{tco: cost.DefaultTCOParams(), costP: cost.DefaultParams()}
	sp.tco.Node = req.TechNode
	if req.PUE != nil {
		sp.tco.PUE = *req.PUE
	}
	if req.EnergyUSDPerKWH != nil {
		sp.tco.EnergyUSDPerKWH = *req.EnergyUSDPerKWH
	}
	if req.DepreciationYears != nil {
		sp.tco.DepreciationYears = *req.DepreciationYears
	}
	if req.ServerPowerBudgetW != nil {
		sp.tco.ServerPowerBudgetW = *req.ServerPowerBudgetW
	}
	if req.MaxLanesPerServer != nil {
		sp.tco.MaxLanesPerServer = *req.MaxLanesPerServer
	}
	if req.D0PerCM2 != nil {
		sp.costP.D0PerCM2 = *req.D0PerCM2
	}
	if req.BondCostUSD != nil {
		sp.costP.BondCost = *req.BondCostUSD
	}
	if err := sp.tco.Validate(); err != nil {
		return nil, err
	}
	if err := sp.costP.Validate(); err != nil {
		return nil, err
	}
	n := req.Chiplets
	r := 1
	for r*r < n {
		r++
	}
	if n < 1 || r*r != n {
		return nil, fmt.Errorf("chiplets %d is not a perfect square", n)
	}
	sp.lane = cost.LaneDesign{Chiplets: n, InterposerEdgeMM: req.InterposerMM}
	if n == 1 {
		// The monolithic baseline has no interposer: canonicalize the edge
		// to zero so every n=1 request shares one cache entry.
		sp.lane.InterposerEdgeMM = 0
	}

	explicit := req.LanePowerW != 0 || req.LaneGIPS != 0
	switch {
	case explicit && req.Benchmark != "":
		return nil, fmt.Errorf("set either lane_power_w/lane_gips or a benchmark workload, not both")
	case explicit:
		if req.LanePowerW <= 0 || req.LaneGIPS <= 0 {
			return nil, fmt.Errorf("explicit workloads need both lane_power_w and lane_gips positive")
		}
		if req.ThermalCheck {
			return nil, fmt.Errorf("thermal_check needs a benchmark workload (the surrogate predicts benchmark power maps)")
		}
		sp.lane.LanePowerW = req.LanePowerW
		sp.lane.LaneGIPS = req.LaneGIPS
	case req.Benchmark != "":
		b, err := perf.ByName(req.Benchmark)
		if err != nil {
			return nil, err
		}
		fIdx := -1
		for i, op := range power.FrequencySet {
			if op.FreqMHz == req.FreqMHz {
				fIdx = i
				break
			}
		}
		if fIdx < 0 {
			return nil, fmt.Errorf("freq_mhz %g not in the DVFS table %v", req.FreqMHz, power.FrequencySet)
		}
		if req.Cores < 1 || req.Cores > floorplan.NumCores {
			return nil, fmt.Errorf("cores %d out of range [1, %d]", req.Cores, floorplan.NumCores)
		}
		op := power.FrequencySet[fIdx]
		sp.bench, sp.op, sp.fIdx, sp.cores = b, op, fIdx, req.Cores
		sp.lane.LanePowerW = power.TotalNominal(b.RefCoreW, req.Cores, op, power.DefaultLeakage())
		sp.lane.LaneGIPS = b.IPS(op, req.Cores)
	default:
		return nil, fmt.Errorf("set a workload: lane_power_w/lane_gips or benchmark/freq_mhz/cores")
	}

	if req.ThermalCheck {
		if n != 1 && n != 4 && n != 16 {
			return nil, fmt.Errorf("thermal_check supports chiplets 1, 4, or 16 (spatial surrogate classes), got %d", n)
		}
		gridN := req.GridN
		if gridN == 0 {
			gridN = 64
		}
		if gridN < 4 || gridN%4 != 0 || gridN > maxGridN {
			return nil, fmt.Errorf("grid_n %d must be a multiple of 4 in [4, %d]", gridN, maxGridN)
		}
		var (
			pl  floorplan.Placement
			err error
		)
		switch {
		case n == 1:
			pl = floorplan.SingleChip()
		case req.InterposerMM == 0:
			pl, err = floorplan.UniformGrid(r, 0)
		default:
			pl, err = floorplan.UniformGridForInterposer(r, req.InterposerMM)
		}
		if err != nil {
			return nil, fmt.Errorf("thermal_check placement: %w", err)
		}
		sp.check = true
		sp.gridN = gridN
		sp.pl = pl
	}
	return sp, nil
}

// cacheKey is the content address of the elaboration: every resolved model
// constant participates (the elaboration depends continuously on all of
// them), plus the spatial-check coordinates when enabled.
func (sp *tcoSpec) cacheKey() string {
	h := sha256.Sum256([]byte(fmt.Sprintf(
		"tco|v1|node=%s|hs=%g,%g,%g,%g,%g,%g,%g|srv=%g,%g,%g,%d,%g|dc=%g,%g,%g|mfg=%g,%g|lane=%d,%g,%g,%g|check=%v|bench=%s|f=%d|p=%d|grid=%d",
		sp.tco.Node,
		sp.tco.Heatsink.MaxCaseC, sp.tco.Heatsink.AmbientC, sp.tco.Heatsink.SinkRCPerW,
		sp.tco.Heatsink.SpreadRCCM2PerW, sp.tco.Heatsink.FringeCM,
		sp.tco.Heatsink.BaseCostUSD, sp.tco.Heatsink.CostUSDPerW,
		sp.tco.ServerOverheadUSD, sp.tco.ServerOverheadW, sp.tco.PSUUSDPerW,
		sp.tco.MaxLanesPerServer, sp.tco.ServerPowerBudgetW,
		sp.tco.PUE, sp.tco.EnergyUSDPerKWH, sp.tco.DepreciationYears,
		sp.costP.D0PerCM2, sp.costP.BondCost,
		sp.lane.Chiplets, sp.lane.InterposerEdgeMM, sp.lane.LanePowerW, sp.lane.LaneGIPS,
		sp.check, sp.bench.Name, sp.fIdx, sp.cores, sp.gridN)))
	return "tco:" + hex.EncodeToString(h[:])
}

// engineConfig maps the spatial-check coordinates onto the engine
// configuration whose physics fingerprint selects the process-wide engine —
// the same substrate /v1/thermal/solve and searches on this grid use, so
// the check shares their calibrations and memos.
func (sp *tcoSpec) engineConfig() org.Config {
	cfg := org.DefaultConfig(sp.bench)
	cfg.Thermal.Nx, cfg.Thermal.Ny = sp.gridN, sp.gridN
	cfg.SpatialSurrogate = true
	return cfg
}

// resolveTCO validates a TCO request and returns the spec with its canonical
// cache key — the normal form the batch coalescer dedups on.
func (s *Server) resolveTCO(req *TCORequest) (*tcoSpec, string, error) {
	r := *req
	if r.TechNode == "" && s.opts.TCONode != "" {
		// Requests that do not pin a node inherit the daemon's default; the
		// resolved node lands in the cache key below.
		r.TechNode = s.opts.TCONode
	}
	sp, err := r.resolve(s.opts.MaxGridN)
	if err != nil {
		return nil, "", err
	}
	return sp, sp.cacheKey(), nil
}

// tcoComputer returns the pool-task body for one resolved elaboration — the
// computation shared by POST /v1/cost/tco and batch tco items. The analytic
// elaboration is sub-microsecond; a spatial thermal check costs one
// surrogate prediction (plus calibration on the engine's first use).
func (s *Server) tcoComputer(sp *tcoSpec, key string) func(context.Context) (any, error) {
	return func(taskCtx context.Context) (any, error) {
		computeStart := time.Now()
		elab, err := sp.tco.ElaborateServer(sp.costP, sp.lane)
		if err != nil {
			return nil, err
		}
		resp := &TCOResponse{Elab: elab, Fidelity: fidelityAnalytic}
		if sp.check && elab.Feasible {
			eng, err := s.engine(sp.engineConfig())
			if err != nil {
				return nil, err
			}
			pred, err := eng.SpatialPredictPeakC(taskCtx, sp.bench, sp.pl, sp.op, sp.cores)
			if err != nil {
				return nil, err
			}
			resp.Fidelity = fidelitySpatial
			resp.PredPeakC = pred
			resp.ThresholdC = sp.tco.Heatsink.MaxCaseC
			if pred > resp.ThresholdC {
				resp.Elab.Feasible = false
				resp.Elab.Reason = cost.ReasonThermal
				resp.Elab.LanesPerServer = 0
			}
		}
		s.tcoEvals.With(resp.Fidelity).Inc()
		// One-event audit record: which design was elaborated, at what
		// fidelity, and why it was (in)feasible.
		al := org.NewAuditLog(1)
		al.Add(org.AuditEvent{
			Kind:     org.AuditTCOEval,
			N:        sp.lane.Chiplets,
			EdgeMM:   resp.Elab.InterposerEdgeMM,
			FreqMHz:  sp.op.FreqMHz,
			Cores:    sp.cores,
			Fidelity: resp.Fidelity,
			PredC:    resp.PredPeakC,
			BoundC:   resp.ThresholdC,
			Reason:   resp.Elab.Reason,
		})
		s.audits.add(auditRecord{
			RequestID: obs.RequestID(taskCtx),
			CacheKey:  key,
			Start:     computeStart,
			ElapsedMS: float64(time.Since(computeStart).Microseconds()) / 1e3,
			Feasible:  resp.Elab.Feasible,
			Trail:     al.Trail(),
		})
		return resp, nil
	}
}

func (s *Server) handleTCO(w http.ResponseWriter, r *http.Request) {
	const endpoint = "cost_tco"
	start := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	var req TCORequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, r, endpoint, http.StatusBadRequest, err, start)
		return
	}
	sp, key, err := s.resolveTCO(&req)
	if err != nil {
		s.fail(w, r, endpoint, http.StatusBadRequest, err, start)
		return
	}
	resp, err := lookup[TCOResponse](s, ctx, r, endpoint, key, start, s.tcoComputer(sp, key))
	if err != nil {
		s.fail(w, r, endpoint, errStatus(err), err, start)
		return
	}
	s.finish(w, endpoint, http.StatusOK, resp, start)
}
