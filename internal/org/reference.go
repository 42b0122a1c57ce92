package org

import (
	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/noc"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
	"chiplet25d/internal/thermal"
)

// ReferenceSimulate is the dumb-but-obviously-correct evaluation path: one
// full leakage-coupled simulation with none of the production machinery —
// no memo, no singleflight, no surrogate, no spans, no shard hashing, and a
// serial thermal kernel. It composes the underlying packages in the plain
// reading order of the pipeline (NoC power, stack, cores, model, active
// mask, leakage fixed point).
//
// Because every stage is deterministic, the result must be bit-identical to
// Engine.Simulate for the same configuration: internal/verify's
// differential checks hold the Engine (and its memo, under arbitrary
// lookup orders) to this reference.
func ReferenceSimulate(cfg Config, b perf.Benchmark, pl floorplan.Placement, op power.DVFSPoint, p int) (SimRecord, error) {
	if _, err := checkEval(op, p); err != nil {
		return SimRecord{}, err
	}
	mesh, err := noc.MeshPower(pl, op, p, b.Traffic, cfg.Link, cfg.Router)
	if err != nil {
		return SimRecord{}, err
	}
	nocW := mesh.TotalW()
	stack, err := floorplan.BuildStack(pl)
	if err != nil {
		return SimRecord{}, err
	}
	cores, err := pl.Cores()
	if err != nil {
		return SimRecord{}, err
	}
	model, err := thermal.NewModel(stack, cfg.Thermal)
	if err != nil {
		return SimRecord{}, err
	}
	active, err := power.MintempActive(p)
	if err != nil {
		return SimRecord{}, err
	}
	w := power.Workload{
		RefCoreW: b.RefCoreW,
		Op:       op,
		Active:   active,
		NoCW:     nocW,
		Leakage:  cfg.Leakage,
	}
	res, err := power.Simulate(model, cores, w, cfg.SimOpts)
	if err != nil {
		return SimRecord{}, err
	}
	return newSimRecord(res, nocW, model), nil
}
