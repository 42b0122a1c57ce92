package main

import "time"

type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of chipletd sees; an untraced run prints
// them. Each applies to every workload: "cold" and "warm" name the
// workload's cache-missing and warm request classes (see the package doc).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"cold_p50_ms", "ms"},
	{"warm_p50_ms", "ms"},
}

// stages are the chipletd_stage_duration_seconds labels a run reports a
// self-time share for; spans under other names are summed into "other".
var stages = []string{
	"cache.lookup", "pool.queue_wait", "batch.item", "engine.lookup", "engine.sim",
	"noc.mesh", "floorplan.build", "thermal.model", "power.leakage_loop", "thermal.cg",
	"org.optimize", "org.baseline", "org.restart", "org.find_placement",
	"engine.spatial_calibrate", "engine.doe_sim",
}

// perLayerMetrics are what a traced run prints.
var perLayerMetrics = func() []metricDef {
	ms := []metricDef{
		{"cold_tail_ms", "ms"},
		{"cold_tail_pct", "%"},
		{"cold_samples", "count"},
		{"warm_samples", "count"},
		{"search.scalar_p50_ms", "ms"},
		{"sweep.tco_p50_ms", "ms"},
		{"harness.send_lag_p90_ms", "ms"},
		{"obs.trace_overhead_ratio", "ratio"},
		{"obs.spans_dropped", "count"},
		{"trace.concurrency", "ratio"},
		{"pool.queue_wait.p90_ms", "ms"},
	}
	for _, st := range append(stages, "other", "unattributed") {
		ms = append(ms, metricDef{st + ".self_share", "share"})
	}
	return append(ms,
		metricDef{"org.full_sims_per_search.cold", "count"},
		metricDef{"org.full_sims_per_search.warm", "count"},
		metricDef{"org.full_sims_per_search.scalar", "count"},
		metricDef{"org.evals_per_search", "count"},
		metricDef{"surrogate.spatial_hit_ratio", "ratio"},
		metricDef{"surrogate.scalar_hits", "count"},
		metricDef{"surrogate.calibrations", "count"},
		metricDef{"engine.memo_hit_ratio", "ratio"},
		metricDef{"engine.dedup_waits", "count"},
		metricDef{"thermal.sims", "count"},
		metricDef{"thermal.cg_iters_per_sim", "count"},
		metricDef{"thermal.model_reuses", "count"},
		metricDef{"thermal.warm_seeds", "count"},
		metricDef{"power.leakage_iters_per_sim", "count"},
		metricDef{"cache.hit_ratio", "ratio"},
		metricDef{"batch.coalesce_ratio", "ratio"},
		metricDef{"tco.spatial_evals", "count"},
		metricDef{"runtime.gc_cycles", "count"},
	)
}()

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics computes every metric of a finished run. Latencies and
// throughput cover the whole window; counts cover the prefix (from the
// /metrics scrapes m0 and mP and the prefix answers); stage shares cover
// the traced requests. A metric a workload cannot measure reads 0.
func (t *tally) metrics(setups []float64, rssMB float64, window time.Duration, m0, mP promSnap) map[string]float64 {
	lat := func(class string, traced ...bool) []float64 {
		var xs []float64
		for _, s := range t.lat[class] {
			if len(traced) == 0 || s.traced == traced[0] {
				xs = append(xs, s.ms)
			}
		}
		return xs
	}
	m := map[string]float64{
		"setup_s":     median(setups),
		"items_per_s": float64(t.items) / window.Seconds(),
		"peak_rss_mb": rssMB,
		"cold_p50_ms": median(lat("cold")),
		"warm_p50_ms": median(lat("warm")),

		"cold_samples":             float64(len(t.lat["cold"])),
		"warm_samples":             float64(len(t.lat["warm"])),
		"search.scalar_p50_ms":     median(lat("scalar")),
		"sweep.tco_p50_ms":         median(lat("tco")),
		"obs.trace_overhead_ratio": ratio(median(lat("cold", true)), median(lat("cold", false))),
		"obs.spans_dropped":        float64(t.tr.dropped),
	}
	if pct, v, ok := tail(lat("cold")); ok {
		m["cold_tail_ms"], m["cold_tail_pct"] = v, float64(pct)
	}
	if _, v, ok := tail(t.lags); ok {
		m["harness.send_lag_p90_ms"] = v
	}
	if _, v, ok := tail(t.tr.queueWaits); ok {
		m["pool.queue_wait.p90_ms"] = v
	}
	shares, concurrency := t.tr.shares(stages)
	for st, v := range shares {
		m[st+".self_share"] = v
	}
	m["trace.concurrency"] = concurrency

	sims := map[string][]float64{}
	var evals []float64
	spatial, evalSum := 0, 0
	for _, s := range t.searches {
		sims[s.class] = append(sims[s.class], float64(s.sims))
		evals = append(evals, float64(s.evals))
		spatial += s.spatialHits
		evalSum += s.evals
	}
	for _, class := range []string{"cold", "warm", "scalar"} {
		m["org.full_sims_per_search."+class] = median(sims[class])
	}
	m["org.evals_per_search"] = median(evals)
	m["surrogate.spatial_hit_ratio"] = ratio(float64(spatial), float64(evalSum))

	d := func(series string) float64 { return delta(m0, mP, series) }
	m["surrogate.scalar_hits"] = d("chipletd_eval_scalar_hits_total")
	m["surrogate.calibrations"] = d("chipletd_eval_spatial_calibrations_total")
	memoHits := d("chipletd_eval_memo_hits_total")
	m["engine.memo_hit_ratio"] = ratio(memoHits, memoHits+d("chipletd_eval_memo_misses_total"))
	m["engine.dedup_waits"] = d("chipletd_eval_dedup_waits_total")
	m["thermal.sims"] = d("chipletd_thermal_sims_total")
	m["thermal.cg_iters_per_sim"] = ratio(d("chipletd_cg_iterations_total"), d("chipletd_thermal_sims_total"))
	m["thermal.model_reuses"] = d("chipletd_eval_model_reuses_total")
	m["thermal.warm_seeds"] = d("chipletd_eval_warm_seeds_total")
	m["power.leakage_iters_per_sim"] = ratio(d("chipletd_leakage_iterations_sum"), d("chipletd_leakage_iterations_count"))
	// Single requests count in the cache counters; batch items only in the
	// batch answers.
	hits := d("chipletd_cache_hits_total") + float64(t.batch.CacheHits)
	m["cache.hit_ratio"] = ratio(hits, d("chipletd_cache_hits_total")+d("chipletd_cache_misses_total")+float64(t.batch.UniqueKeys))
	m["batch.coalesce_ratio"] = ratio(float64(t.batch.Coalesced), float64(t.batch.Total))
	m["tco.spatial_evals"] = d(`chipletd_tco_evals_total{fidelity="spatial"}`)
	m["runtime.gc_cycles"] = d("chipletd_go_gc_cycles_total")
	return m
}
