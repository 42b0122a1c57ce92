package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/org"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
)

// refTolC is how far a served peak temperature may sit from the reference
// simulation's. The daemon solves with multigrid CG from warm starts, the
// reference with IC(0) CG from ambient; both stop at the solver tolerance,
// which keeps them ~1e-6 °C apart.
const refTolC = 1e-4

// refSolves is how many served solves each run recomputes.
const refSolves = 8

// referencePeakC recomputes a single solve with org.ReferenceSimulate, the
// plain evaluation path with no memo, cache, surrogate or warm start.
func referencePeakC(req solveReq) (float64, error) {
	b, err := perf.ByName(req.Benchmark)
	if err != nil {
		return 0, err
	}
	cfg := org.DefaultConfig(b)
	cfg.Thermal.Nx, cfg.Thermal.Ny = req.GridN, req.GridN
	pl := floorplan.SingleChip()
	if n := req.Placement.Chiplets; n > 1 {
		r := int(math.Round(math.Sqrt(float64(n))))
		if pl, err = floorplan.UniformGrid(r, *req.Placement.SpacingMM); err != nil {
			return 0, err
		}
	}
	for _, op := range power.FrequencySet {
		if op.FreqMHz == req.FreqMHz {
			rec, err := org.ReferenceSimulate(cfg, b, pl, op, req.Cores)
			return rec.PeakC, err
		}
	}
	return 0, fmt.Errorf("freq_mhz %g not in the DVFS table", req.FreqMHz)
}

// refSolve is one served solve awaiting its reference check; order is
// where it sits in the workload's request stream.
type refSolve struct {
	order   [2]int // job index, batch item index
	req     solveReq
	servedC float64
}

// check recomputes the solve and compares the served peak temperature.
func (r refSolve) check() error {
	want, err := referencePeakC(r.req)
	if err != nil {
		return fmt.Errorf("reference for %s: %w", r.req, err)
	}
	if d := math.Abs(r.servedC - want); d > refTolC {
		return fmt.Errorf("%s: served peak %.6f °C, reference %.6f °C (off by %.2g)", r.req, r.servedC, want, d)
	}
	return nil
}

// firstRefs returns the refSolves earliest in stream order, at most n.
func firstRefs(refs []refSolve, n int) []refSolve {
	sort.Slice(refs, func(i, j int) bool {
		a, b := refs[i].order, refs[j].order
		return a[0] < b[0] || a[0] == b[0] && a[1] < b[1]
	})
	return refs[:min(n, len(refs))]
}

// roundC renders a temperature for the answer digest. Served values depend
// on the daemon's warm-start history to within the solver tolerance, so
// the digest keeps 1e-3 °C.
func roundC(c float64) string { return fmt.Sprintf("%.3f", c) }

// digestOf hashes answer lines in key order.
func digestOf(lines map[string]string) string {
	h := sha256.New()
	for _, k := range sortedKeys(lines) {
		fmt.Fprintf(h, "%s %s\n", k, lines[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
