package verify

import (
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"chiplet25d/internal/cost"
	"chiplet25d/internal/serve"
)

// Cost/TCO oracle suite: the server elaboration is pure arithmetic, so it
// admits the strongest checks in the harness — dense goldens pinned at
// 12 significant digits and economic monotonicity laws property-tested over
// seeded random parameter draws. A separate differential proves the serving
// layer transparent: a 1000-candidate fleet sweep through /v1/batch must be
// bit-identical to the same candidates posted one at a time.

// relClose reports |got-want| <= tol * max(1, |want|) — an absolute floor of
// tol for near-zero values, relative above one.
func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// cost/monotonicity: economic laws the elaboration must obey for every
// parameter draw. Each is a direction the paper's argument leans on: yield
// falls with die area and defect density (why chiplets are cheap), heatsink
// capacity grows with chiplet count at fixed total silicon (why chiplets
// reclaim dark silicon), and TCO moves the right way when energy gets
// cheaper or hardware amortizes longer.
func checkCostMonotonicity(ctx *Context) error {
	rng := rand.New(rand.NewSource(1))
	cases := 200
	if ctx != nil && ctx.Long {
		cases = 2000
	}
	for i := 0; i < cases; i++ {
		p := cost.DefaultParams()
		p.D0PerCM2 = 0.05 + 0.6*rng.Float64()
		p.BondCost = 0.05 + rng.Float64()

		// Yield non-increasing, die cost non-decreasing in area.
		a1 := 20 + 280*rng.Float64()
		a2 := a1 * (1 + rng.Float64())
		if p.CMOSYield(a2) > p.CMOSYield(a1)+1e-12 {
			return failf("case %d: yield increased with area: Y(%.1f)=%.6g > Y(%.1f)=%.6g",
				i, a2, p.CMOSYield(a2), a1, p.CMOSYield(a1))
		}
		if p.CMOSDieCost(a2) < p.CMOSDieCost(a1)-1e-9 {
			return failf("case %d: die cost decreased with area: C(%.1f)=%.6g < C(%.1f)=%.6g",
				i, a2, p.CMOSDieCost(a2), a1, p.CMOSDieCost(a1))
		}
		// Yield non-increasing in defect density at fixed area.
		hi := p
		hi.D0PerCM2 = p.D0PerCM2 * (1 + rng.Float64())
		if hi.CMOSYield(a1) > p.CMOSYield(a1)+1e-12 {
			return failf("case %d: yield increased with defect density", i)
		}

		// Heatsink capacity non-decreasing in chiplet count at fixed total
		// area (more spread area per watt — the dark-silicon reclamation).
		hs := cost.DefaultHeatsink()
		total := 100 + 300*rng.Float64()
		prev := math.Inf(-1)
		for _, n := range []int{1, 4, 9, 16, 25, 36, 64} {
			cap := hs.MaxLanePowerW(n, total/float64(n))
			if cap < prev-1e-9 {
				return failf("case %d: heatsink capacity fell from %.6g to %.6g W going to %d chiplets (total %.0f mm²)",
					i, prev, cap, n, total)
			}
			prev = cap
		}

		// TCO direction under datacenter knob moves, on a feasible design.
		tp := cost.DefaultTCOParams()
		lane := cost.LaneDesign{Chiplets: 4, LanePowerW: 150 + 100*rng.Float64(), LaneGIPS: 100 + 150*rng.Float64()}
		base, err := tp.ElaborateServer(p, lane)
		if err != nil {
			return failf("case %d: elaborate: %v", i, err)
		}
		if !base.Feasible {
			continue
		}
		cheap := tp
		cheap.EnergyUSDPerKWH = tp.EnergyUSDPerKWH * rng.Float64()
		ce, err := cheap.ElaborateServer(p, lane)
		if err != nil {
			return failf("case %d: cheap-energy elaborate: %v", i, err)
		}
		if ce.TCOPerGIPSYear > base.TCOPerGIPSYear+1e-12 {
			return failf("case %d: cheaper energy raised TCO/GIPS: %.9g > %.9g", i, ce.TCOPerGIPSYear, base.TCOPerGIPSYear)
		}
		long := tp
		long.DepreciationYears = tp.DepreciationYears * (1 + rng.Float64())
		le, err := long.ElaborateServer(p, lane)
		if err != nil {
			return failf("case %d: long-depreciation elaborate: %v", i, err)
		}
		if le.TCOPerGIPSYear > base.TCOPerGIPSYear+1e-12 {
			return failf("case %d: longer depreciation raised TCO/GIPS: %.9g > %.9g", i, le.TCOPerGIPSYear, base.TCOPerGIPSYear)
		}
	}
	ctx.logf("%d random parameter draws satisfied all monotonicity laws", cases)
	return nil
}

// cost/interior-optimum: at the base node the $/GIPS-year sweep must be
// minimized at an interior chiplet count — neither the monolithic baseline
// (heatsink-starved) nor the finest split (interposer/bonding-dominated).
// This is the TCO restatement of the paper's thesis; a model change that
// flattens the curve into a boundary optimum is a bug even if every
// individual equation still holds.
func checkCostInteriorOptimum(ctx *Context) error {
	counts := []int{1, 4, 9, 16, 25, 36, 64}
	tp := cost.DefaultTCOParams()
	lane := cost.LaneDesign{LanePowerW: 220, LaneGIPS: 180}
	elabs, err := tp.SweepChiplets(cost.DefaultParams(), lane, counts)
	if err != nil {
		return err
	}
	best := -1
	for i, e := range elabs {
		if e.Feasible && (best < 0 || e.TCOPerGIPSYear < elabs[best].TCOPerGIPSYear) {
			best = i
		}
	}
	if best < 0 {
		return failf("no feasible design in the base-node sweep")
	}
	if best == 0 || best == len(counts)-1 {
		return failf("optimum at boundary chiplet count %d (want interior); sweep minimum %.6g $/GIPS-year",
			counts[best], elabs[best].TCOPerGIPSYear)
	}
	// Dark-silicon reclamation: a 300 W lane exceeds every coarse
	// organization's heatsink capacity and only becomes coolable once the
	// silicon is split finely enough — heatsink-rejected monolithically,
	// feasible at some higher count.
	hot := lane
	hot.LanePowerW = 300
	hotElabs, err := tp.SweepChiplets(cost.DefaultParams(), hot, counts)
	if err != nil {
		return err
	}
	if hotElabs[0].Feasible || hotElabs[0].Reason != cost.ReasonHeatsink {
		return failf("300 W monolithic lane not heatsink-rejected (reason %q, cap %.1f W)",
			hotElabs[0].Reason, hotElabs[0].MaxLanePowerW)
	}
	reclaimed := -1
	for i, e := range hotElabs {
		if e.Feasible {
			reclaimed = i
			break
		}
	}
	if reclaimed <= 0 {
		return failf("300 W lane never became feasible across the sweep; heatsink capacity is not growing with chiplet count")
	}
	ctx.logf("optimum at %d chiplets: %.6g $/GIPS-year; 300 W lane reclaimed at %d chiplets (monolithic cap %.1f W)",
		counts[best], elabs[best].TCOPerGIPSYear, counts[reclaimed], hotElabs[0].MaxLanePowerW)
	return nil
}

// cost/golden-elaboration: one full server elaboration pinned densely at 12
// significant digits — defaults, 45nm, 4 chiplets on the 20 mm minimum
// interposer, a 220 W / 180 GIPS lane. Every intermediate is asserted, not
// just the objective, so a compensating pair of errors cannot pass.
func checkCostGoldenElaboration(ctx *Context) error {
	tp := cost.DefaultTCOParams()
	lane := cost.LaneDesign{Chiplets: 4, InterposerEdgeMM: 20, LanePowerW: 220, LaneGIPS: 180}
	e, err := tp.ElaborateServer(cost.DefaultParams(), lane)
	if err != nil {
		return err
	}
	if !e.Feasible || e.Reason != cost.ReasonOK || e.LanesPerServer != 8 {
		return failf("golden design no longer feasible with 8 lanes: feasible=%v reason=%q lanes=%d",
			e.Feasible, e.Reason, e.LanesPerServer)
	}
	// 12-significant-digit pins; the 1e-11 relative tolerance absorbs only
	// the quoting precision itself plus last-ulp libm drift.
	const tol = 1e-11
	for _, g := range []struct {
		name string
		got  float64
		want float64
	}{
		{"SiliconUSD", e.SiliconUSD, 36.2511106702},
		{"MaxLanePowerW", e.MaxLanePowerW, 282.433422917},
		{"HeatsinkUSD", e.HeatsinkUSD, 24.1216711459},
		{"LanePowerW", e.LanePowerW, 220},
		{"ServerPowerW", e.ServerPowerW, 1820},
		{"ServerUSD", e.ServerUSD, 1955.98225453},
		{"CapexUSDPerYear", e.CapexUSDPerYear, 651.994084843},
		{"EnergyUSDPerYear", e.EnergyUSDPerYear, 1994.265},
		{"TCOUSDPerYear", e.TCOUSDPerYear, 2646.25908484},
		{"ServerGIPS", e.ServerGIPS, 1440},
		{"TCOPerGIPSYear", e.TCOPerGIPSYear, 1.83767992003},
	} {
		if !relClose(g.got, g.want, tol) {
			return failf("golden %s drifted: got %.12g, want %.12g", g.name, g.got, g.want)
		}
	}
	ctx.logf("all 11 pinned fields within %.0e relative of the 12-digit golden", tol)
	return nil
}

// cost/tco-batch-differential: a 1000-candidate fleet-design sweep executed
// as one /v1/batch (coalesced, memoized, pooled) against a second node that
// answers the same candidates one POST /v1/cost/tco at a time, item for
// item bit-identical — Elab comparison is ==, not a tolerance. The batch's
// item order comes from the exported SweepTemplate.Expand, so the expansion
// itself is under test too.
func checkTCOBatchDifferential(ctx *Context) error {
	opts := serve.Options{
		Workers: 2,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	client := &http.Client{Timeout: 2 * time.Minute}

	// 4 nodes x 5 chiplet counts x 10 interposer edges x 5 lane caps = 1000
	// candidates, under the /v1/batch 1024-item ceiling. Edges 20-47 mm are
	// valid at every node and count (the largest minimum edge is 20 mm, for
	// the 45nm organizations), and the n=1 items canonicalize their edge
	// away — the batch must coalesce them without changing a single bit.
	sweep := `{
	  "sweep": {
	    "tco": {"chiplets": 1, "lane_power_w": 220, "lane_gips": 180},
	    "tech_nodes": ["45nm", "28nm", "16nm", "7nm"],
	    "chiplets_per_lane": [1, 4, 16, 64, 100],
	    "interposer_mm": [20, 23, 26, 29, 32, 35, 38, 41, 44, 47],
	    "lanes_per_server": [1, 2, 4, 8, 10]
	  }
	}`

	batchTS := httptest.NewServer(serve.New(opts).Handler())
	defer batchTS.Close()
	var br serve.BatchResponse
	if err := postJSON(client, batchTS.URL+"/v1/batch", sweep, &br); err != nil {
		return failf("batch: %v", err)
	}
	if br.Total != 1000 {
		return failf("batch expanded to %d items, want 1000", br.Total)
	}
	if br.Coalesced == 0 || br.UniqueKeys >= br.Total {
		return failf("batch did no coalescing (%d unique keys of %d items); the n=1 edge canonicalization is broken",
			br.UniqueKeys, br.Total)
	}

	// Reference: a fresh node, one endpoint call per candidate, expanded
	// client-side through the same template type.
	var body struct {
		Sweep *serve.SweepTemplate `json:"sweep"`
	}
	if err := json.Unmarshal([]byte(sweep), &body); err != nil {
		return err
	}
	items, err := body.Sweep.Expand()
	if err != nil {
		return failf("client-side expand: %v", err)
	}
	if len(items) != br.Total {
		return failf("client-side expansion has %d items, batch ran %d", len(items), br.Total)
	}
	refTS := httptest.NewServer(serve.New(opts).Handler())
	defer refTS.Close()
	for i, it := range items {
		if it.TCO == nil {
			return failf("expanded item %d is not a tco item", i)
		}
		raw, _ := json.Marshal(it.TCO)
		var seq serve.TCOResponse
		if err := postJSON(client, refTS.URL+"/v1/cost/tco", string(raw), &seq); err != nil {
			return failf("sequential tco %d: %v", i, err)
		}
		b := br.Items[i]
		if b.Status != 200 || b.TCO == nil {
			return failf("batch item %d: status %d (%s)", i, b.Status, b.Error)
		}
		if b.TCO.Elab != seq.Elab {
			return failf("item %d diverged: batch %+v, sequential %+v", i, b.TCO.Elab, seq.Elab)
		}
		if b.TCO.CacheKey != seq.CacheKey {
			return failf("item %d cache keys diverged: batch %s, sequential %s", i, b.TCO.CacheKey, seq.CacheKey)
		}
		if b.TCO.Fidelity != seq.Fidelity {
			return failf("item %d fidelity diverged: batch %s, sequential %s", i, b.TCO.Fidelity, seq.Fidelity)
		}
	}
	ctx.logf("1000 candidates bit-identical; batch coalesced %d items onto %d unique keys",
		br.Coalesced, br.UniqueKeys)
	return nil
}
