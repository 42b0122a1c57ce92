// Command chipletbench is chipletd's end-to-end benchmark and layer ledger.
//
// Each run builds ./cmd/chipletd and boots it as a fresh subprocess on
// 127.0.0.1:0 with its production defaults (only -addr and -log-format
// json are passed). One client process drives one named workload over at
// most two connections, checks every answer, and prints one JSON object on
// the last line of standard output; the readable report goes to standard
// error. Per-layer numbers come from outside the daemon: the span trees it
// returns (?trace=1, and GET /debug/solves for batches), /metrics counter
// deltas, and response fields. It runs on Linux, reading /proc.
//
// Usage, from the repository root:
//
//	bash cmd/chipletbench/run.sh --workload solve --seed 1 --seconds 25 --trace 0
//	go run -C cmd/chipletbench . -seed 1                 # all four workloads
//	go run -C cmd/chipletbench . -quick                  # toy-size smoke run
//	go run -C cmd/chipletbench . -runs 5 -out new.json   # ledger of 5 seeds
//	go run -C cmd/chipletbench . -compare cmd/chipletbench/baseline.json -ledger new.json
//
// # Workloads
//
// Every workload generates its request bodies from -seed. Request shapes
// stay under the daemon's 2048-span trace cap (a search at the default
// 0.5 mm interposer step drops thousands of spans).
//
//   - solve: two closed-loop clients send POST /v1/thermal/solve at grid 64:
//     1, 4 or 16 chiplets with drawn spacings, benchmark, DVFS point and
//     core count; a quarter repeat an earlier body. It stresses thermal
//     assembly, multigrid-preconditioned CG, the leakage loop and result
//     cache hits, and bypasses the organization search and the surrogates.
//   - search: one closed-loop client (one architect) sends POST
//     /v1/org/search for cholesky at thermal grid 16, 13 at a time: two
//     cold, each followed by five warm, then one scalar. Cold: a fresh
//     heat_transfer_coeff, hence a fresh engine and spatial calibration,
//     spatial tier on, 2 mm step, 8 starts. Warm: one of the last three
//     cold searches again, its threshold nudged by at most 0.01 °C, so the
//     engine memo answers what the result cache misses. Scalar: fresh
//     physics, spatial tier at the daemon default (off), 4 mm step, 4
//     starts. It isolates the greedy search, the engine memo and the
//     fidelity ladder; the coefficient stays within 1% of 3000 W/m²K so a
//     class's searches cost alike.
//   - sweep: one closed-loop client sends POST /v1/batch: cold 64-item
//     solve sweeps at grid 32 whose near-duplicate spacings coalesce, cold
//     36-item TCO fleet sweeps with the spatial thermal check (each on a
//     benchmark not yet calibrated on its grid), and warm resends of
//     recent solve sweeps four at a time, 3:2:8. Batch expansion,
//     coalescing, the result cache and the cost elaborator do the work; it
//     reads the result cache where solve writes it.
//   - mixed: interactive fresh solves go open loop at 2 per second on one
//     connection, each timed from when it was due, while a closed-loop
//     client keeps cold solve sweeps (and four warm resends after each)
//     running on the other. Only here do batch items fill both pool
//     workers, so pool.queue_wait appears: this is the admission workload.
//
// Each lane's first requests (64 solves, 26 searches, 26 batches, 40 + 10
// for mixed) always run. Their answers make the run's answer digest, and
// the counts are taken over them, so counts repeat exactly for a seed.
//
// # Metrics
//
// An untraced run (-trace 0) prints the end-to-end metrics: setup_s (the
// median of eight boots, four before the window and four after, each from
// exec through the "listening" log record, GET /healthz and a warm-up
// solve), items_per_s (solves, searches, or batch items completed per
// second of the window; on mixed, background batch items), peak_rss_mb
// (the daemon's VmHWM), and the medians cold_p50_ms and warm_p50_ms.
// Every metric has to apply to every workload, so cold and warm name each
// workload's own request classes:
//
//	workload  cold_p50_ms                warm_p50_ms
//	solve     result-cache-miss solve    result-cache-hit solve
//	search    cold search                warm search (engine memo)
//	sweep     cold solve sweep           resent sweep (result cache)
//	mixed     interactive solve, open    resent background sweep
//	          loop, from its due time
//
// A traced run (-trace 1) sends every other request with a trace and
// prints the per-layer metrics: the latency tail cold_tail_ms at
// cold_tail_pct, the highest percentile up to p90 with at least ten
// samples beyond it (0 when that would be below the median), with
// cold_samples and warm_samples; search.scalar_p50_ms and
// sweep.tco_p50_ms; the open-loop harness.send_lag_p90_ms; the p90 of the
// queue waits of single requests, pool.queue_wait.p90_ms;
// obs.trace_overhead_ratio (traced over untraced cold p50) and
// obs.spans_dropped (a trace that drops spans fails the run); the stage
// self-time shares; and the counts. A span's self time is its duration
// minus the union of its children; <stage>.self_share is its share of all
// self time plus unattributed, the client latency no span covers (HTTP and
// JSON). trace.concurrency is that total over client latency: 1 for serial
// requests, above 1 when batch items overlap. Latency and throughput
// metrics cover the window; counts cover the prefix.
//
// Shared hosts are noisy. On a 2-CPU Linux VM a fixed memory-bound loop
// ran anywhere from 300 to 520 sweeps a second from one second to the
// next, one search repeated on an idle daemon took 0.83 s or 1.39 s, and
// over two minutes a dependent floating-point loop sped up by 45% and a
// 32 MiB sweep by 2.4x. Each class keeps its requests' cost alike, so its
// median resists the bursts; drift across minutes still moves whole runs,
// which is why every end-to-end bound is 25%.
//
// Which layer each stage measures, and the end-to-end metric (workload) it
// should move:
//
//	thermal.cg, thermal.model,         thermal CG, model and MG assembly,
//	power.leakage_loop,                the leakage fixed point, floorplan
//	floorplan.build, noc.mesh          and NoC power: cold_p50_ms (solve,
//	                                   mixed), items_per_s (search)
//	org.restart, org.find_placement,   greedy logic with the un-spanned
//	org.optimize, org.baseline,        surrogate predictions, placement
//	engine.sim                         search, full simulations:
//	                                   cold_p50_ms, items_per_s (search)
//	engine.spatial_calibrate,          spatial-surrogate calibration:
//	engine.doe_sim                     cold_p50_ms (search), items_per_s
//	                                   (sweep)
//	engine.lookup                      engine memo: warm_p50_ms (search)
//	cache.lookup, unattributed         result cache, HTTP and JSON:
//	                                   warm_p50_ms (solve, sweep)
//	batch.item                         batch fan-out: items_per_s (sweep)
//	pool.queue_wait                    admission: cold_tail_ms and
//	                                   cold_p50_ms (mixed); ≈0 on solve
//	                                   and search
//
// The counts: org.full_sims_per_search.{cold,warm,scalar},
// org.evals_per_search, surrogate.spatial_hit_ratio, surrogate.scalar_hits
// and surrogate.calibrations move the search latencies; engine.memo_hit_ratio
// and engine.dedup_waits move warm_p50_ms on search; thermal.sims,
// thermal.cg_iters_per_sim, thermal.model_reuses, thermal.warm_seeds and
// power.leakage_iters_per_sim move cold_p50_ms on solve; cache.hit_ratio,
// batch.coalesce_ratio and tco.spatial_evals move items_per_s on sweep;
// runtime.gc_cycles moves peak_rss_mb.
//
// # Checks
//
// A run fails, and the command exits non-zero, on any non-200 answer or
// batch item, transport error, trace with dropped spans, feasible search
// whose winner exceeds its threshold, or served solve that differs from
// org.ReferenceSimulate by more than 1e-4 °C (eight solves per run; a
// workload with fewer single solves is topped up after its window).
//
// # Ledger
//
// -runs n runs every workload untraced and traced for seeds 1..n and
// records each metric's median, min, max and spread with the answer digest
// of every seed; -compare judges a ledger against an earlier one with the
// bounds in BENCHMARK.json (better, worse, within bound, or unresolved
// where the earlier spread exceeds the bound). A digest that changed for
// a seed fails the comparison. baseline.json is the first ledger.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload: solve, search, sweep, mixed, or all")
		seed     = flag.Int64("seed", 1, "workload seed; one seed always generates the same requests")
		seconds  = flag.Float64("seconds", 25, "measured window of one run, in seconds (-quick: 1)")
		traceOn  = flag.Int("trace", 0, "1: traced run, printing the per-layer metrics instead of the end-to-end ones")
		quick    = flag.Bool("quick", false, "toy-size run: small grids and prefixes, one boot")
		runs     = flag.Int("runs", 0, "ledger mode: run every workload for seeds 1..runs, untraced and traced")
		out      = flag.String("out", "", "ledger mode: write the ledger to this file")
		prevPath = flag.String("compare", "", "compare a ledger (-ledger, or a fresh one of -runs seeds) with this earlier one")
		curPath  = flag.String("ledger", "", "with -compare: the ledger to judge")
		root     = flag.String("root", "", "repository root (default: found upward from the working directory)")
	)
	flag.Parse()
	sz := fullSize
	if *quick {
		sz = quickSize
		explicit := false
		flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "seconds" })
		if !explicit {
			*seconds = 1
		}
	}
	if err := mainErr(*root, *name, *seed, *seconds, *traceOn == 1, sz, *runs, *out, *prevPath, *curPath); err != nil {
		fmt.Fprintln(os.Stderr, "chipletbench:", err)
		os.Exit(1)
	}
}

func mainErr(root, name string, seed int64, seconds float64, traced bool, sz sizes, runs int, out, prevPath, curPath string) error {
	root, err := findRoot(root)
	if err != nil {
		return err
	}
	if prevPath != "" {
		return compareMode(root, seconds, sz, runs, out, prevPath, curPath)
	}
	if runs > 0 {
		if out == "" {
			return errors.New("-runs needs -out")
		}
		l, err := runLedger(root, seconds, sz, runs)
		if err != nil {
			return err
		}
		return writeLedger(out, l)
	}
	selected := workloads
	if name != "all" {
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	bin, err := buildDaemon(root)
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range selected {
		res, err := runOnce(bin, w, seed, seconds, traced, sz)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		report(os.Stderr, res)
		if err := printResult(os.Stdout, res); err != nil {
			return err
		}
		if !res.correct() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed their checks", failed, len(selected))
	}
	return nil
}

// findRoot returns dir, or the nearest directory at or above the working
// directory that holds cmd/chipletd.
func findRoot(dir string) (string, error) {
	if dir != "" {
		return dir, nil
	}
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := wd; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "cmd", "chipletd", "main.go")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no cmd/chipletd at or above %s; pass -root", wd)
		}
	}
}

// metricSet is the metrics a run prints: end-to-end untraced, per-layer
// traced.
func metricSet(traced bool) []metricDef {
	if traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// printResult writes the result line.
func printResult(w io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, def := range metricSet(res.traced) {
		ms[def.name] = value{res.metrics[def.name], def.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// report writes the readable account of a run.
func report(w io.Writer, res *result) {
	fmt.Fprintf(w, "%s seed=%d traced=%v window=%.2fs revision=%s digest=%s\n",
		res.workload, res.seed, res.traced, res.window.Seconds(), res.revision, res.digest)
	fmt.Fprintf(w, "  attempted=%d failed=%d error_ratio=%.4f\n",
		res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)))
	for _, f := range res.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, def := range metricSet(res.traced) {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", def.name, res.metrics[def.name], def.unit)
	}
}

// runLedger runs every workload for seeds 1..runs, untraced and traced.
func runLedger(root string, seconds float64, sz sizes, runs int) (*ledger, error) {
	bin, err := buildDaemon(root)
	if err != nil {
		return nil, err
	}
	l := &ledger{NumCPU: runtime.NumCPU(), Seconds: seconds, Runs: runs, Workloads: map[string]*workloadLedger{}}
	for _, w := range workloads {
		wl := &workloadLedger{Digests: map[string]string{}, Metrics: map[string]*summary{}}
		values := map[string][]float64{}
		for seed := int64(1); seed <= int64(runs); seed++ {
			for _, traced := range []bool{false, true} {
				res, err := runOnce(bin, w, seed, seconds, traced, sz)
				if err != nil {
					return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				report(os.Stderr, res)
				if !res.correct() {
					return nil, fmt.Errorf("%s seed %d traced=%v failed its checks", w.name, seed, traced)
				}
				for _, def := range metricSet(traced) {
					values[def.name] = append(values[def.name], res.metrics[def.name])
				}
				if !traced {
					wl.Digests[strconv.FormatInt(seed, 10)] = res.digest
				}
				l.Revision = res.revision
			}
		}
		for _, def := range append(endToEndMetrics, perLayerMetrics...) {
			wl.Metrics[def.name] = summarize(def.unit, values[def.name])
		}
		l.Workloads[w.name] = wl
	}
	return l, nil
}

// compareMode judges the ledger at curPath (or a fresh one of runs seeds,
// default 5, written to out when set) against the one at prevPath.
func compareMode(root string, seconds float64, sz sizes, runs int, out, prevPath, curPath string) error {
	prev, err := readLedger(prevPath)
	if err != nil {
		return err
	}
	bounds, err := readBounds(root)
	if err != nil {
		return err
	}
	var cur *ledger
	if curPath != "" {
		cur, err = readLedger(curPath)
	} else {
		if runs <= 0 {
			runs = 5
		}
		cur, err = runLedger(root, seconds, sz, runs)
		if err == nil && out != "" {
			err = writeLedger(out, cur)
		}
	}
	if err != nil {
		return err
	}
	if n := compareLedgers(os.Stdout, prev, cur, bounds); n > 0 {
		return fmt.Errorf("%d comparisons failed", n)
	}
	return nil
}
