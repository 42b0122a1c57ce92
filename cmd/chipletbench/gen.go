package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// The request generators. Every workload draws its bodies from a
// *rand.Rand seeded by -seed, in stream order, so one seed always yields
// one request stream; chipletd sees only the bodies.

var (
	benchmarks = []string{"shock", "blackscholes", "cholesky", "hpccg", "streamcluster", "swaptions", "lu.cont", "canneal"}
	freqsMHz   = []float64{1000, 800, 533, 400, 320}
)

// Request paths.
const (
	solvePath  = "/v1/thermal/solve"
	searchPath = "/v1/org/search"
	batchPath  = "/v1/batch"
)

type placement struct {
	Chiplets  int      `json:"chiplets"`
	SpacingMM *float64 `json:"spacing_mm,omitempty"`
}

// solveReq is a POST /v1/thermal/solve body.
type solveReq struct {
	Placement placement `json:"placement"`
	Benchmark string    `json:"benchmark"`
	FreqMHz   float64   `json:"freq_mhz"`
	Cores     int       `json:"cores"`
	GridN     int       `json:"grid_n"`
}

func (r solveReq) String() string {
	s := 0.0
	if r.Placement.SpacingMM != nil {
		s = *r.Placement.SpacingMM
	}
	return fmt.Sprintf("solve{n=%d s=%g %s %g MHz p=%d grid=%d}",
		r.Placement.Chiplets, s, r.Benchmark, r.FreqMHz, r.Cores, r.GridN)
}

// job is one request of a workload.
type job struct {
	path  string
	class string // latency class: cold, warm, scalar (searches), tco (sweeps) or background (mixed)
	body  []byte
	solve *solveReq // single solves: the request the reference recomputes
	// thresholdC is a search's feasibility threshold.
	thresholdC float64
	// refItems maps batch item indices to the solves the reference
	// recomputes.
	refItems map[int]solveReq
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the generators only marshal plain structs and maps
	}
	return b
}

// solveGen draws single solves with distinct cache keys: 1, 4 or 16
// chiplets with spacings on the daemon's 0.5 mm placement grid, a
// benchmark, a DVFS point and a core count.
type solveGen struct {
	rng  *rand.Rand
	grid int
	seen map[string]bool
}

func newSolveGen(rng *rand.Rand, grid int) *solveGen {
	return &solveGen{rng: rng, grid: grid, seen: map[string]bool{}}
}

func (g *solveGen) fresh() solveReq {
	for {
		req := solveReq{
			Placement: placement{Chiplets: []int{1, 4, 16}[g.rng.Intn(3)]},
			Benchmark: benchmarks[g.rng.Intn(len(benchmarks))],
			FreqMHz:   freqsMHz[g.rng.Intn(len(freqsMHz))],
			Cores:     32 * (1 + g.rng.Intn(8)),
			GridN:     g.grid,
		}
		if req.Placement.Chiplets > 1 {
			s := 0.5 * float64(1+g.rng.Intn(12))
			req.Placement.SpacingMM = &s
		}
		if k := req.String(); !g.seen[k] {
			g.seen[k] = true
			return req
		}
	}
}

func solveJob(req solveReq) job {
	return job{path: solvePath, class: "cold", body: mustJSON(req), solve: &req}
}

// solveStream is the solve workload: fresh solves, and in a quarter of the
// stream a repeat of a body at least four positions back, almost always
// answered by then, so a result-cache hit. Latency classes follow the
// answer's cached flag, not this intent.
func solveStream(seed int64, sz sizes) func(i int) job {
	rng := rand.New(rand.NewSource(seed))
	g := newSolveGen(rng, sz.solveGrid)
	var bodies []solveReq
	return func(i int) job {
		var req solveReq
		if i >= 4 && rng.Float64() < 0.25 {
			req = bodies[rng.Intn(i-3)]
		} else {
			req = g.fresh()
		}
		bodies = append(bodies, req)
		return solveJob(req)
	}
}

// interactiveStream is the mixed workload's interactive lane: fresh solves
// only.
func interactiveStream(seed int64, sz sizes) func(i int) job {
	g := newSolveGen(rand.New(rand.NewSource(seed)), sz.solveGrid)
	return func(int) job { return solveJob(g.fresh()) }
}

// searchPattern fixes the class mix of the search stream: per 13 searches,
// 2 cold, 10 warm and 1 scalar. Warm searches come five at a time, so most
// follow another warm search: the first request after a heavy search pays
// for what that search left behind (with two other processes competing
// for a 2-CPU VM, a warm search right after a cold one took a median 25 ms,
// the next ones 7 ms), and when two in three warm searches came right
// after a heavy one their median spread by 19-31% over ten runs there.
var searchPattern = []string{
	"cold", "warm", "warm", "warm", "warm", "warm",
	"cold", "warm", "warm", "warm", "warm", "warm", "scalar",
}

// defaultThresholdC is the search threshold chipletd applies when a request
// sets none.
const defaultThresholdC = 85

// searchStream is the search workload. Cold and scalar searches get a
// fresh heat_transfer_coeff, hence a fresh engine (and, for cold ones, a
// fresh spatial calibration). The coefficient stays within 1% of 3000
// W/m²K: across 2850-3150 one search's full simulations range from 66 to
// 96, while within the band they vary mostly with the search seed, so
// every search of a class costs about the same.
//
// A warm search repeats one of the last three cold searches with its
// threshold nudged by at most 0.01 °C: a new result-cache key, answered
// from the warm engine memo and calibration. With a new seed or a threshold
// anywhere in 84-86 °C instead, a warm search runs 0 to 28 fresh
// simulations, 6 to 250 ms, and the median of a run's warm searches
// wanders by a third from run to run.
func searchStream(seed int64, sz sizes) func(i int) job {
	rng := rand.New(rand.NewSource(seed))
	seen := map[float64]bool{}
	freshHTC := func() float64 {
		for {
			h := float64(297000+rng.Intn(6000)) / 100 // 2970-3030 W/m²K
			if !seen[h] {
				seen[h] = true
				return h
			}
		}
	}
	type coldSearch struct {
		htc  float64
		seed int64
	}
	var recent []coldSearch // the last three cold searches
	nWarm := 0
	return func(i int) job {
		body := map[string]any{
			"benchmark":      "cholesky",
			"thermal_grid_n": sz.searchGrid,
			"seed":           rng.Int63n(1 << 31),
		}
		jb := job{path: searchPath, class: searchPattern[i%len(searchPattern)], thresholdC: defaultThresholdC}
		switch jb.class {
		case "cold":
			c := coldSearch{freshHTC(), body["seed"].(int64)}
			recent = append(recent, c)
			if len(recent) > 3 {
				recent = recent[1:]
			}
			body["heat_transfer_coeff"] = c.htc
			body["spatial_surrogate"] = true
			body["interposer_step_mm"] = 2
			body["starts"] = sz.coldStarts
		case "warm":
			c := recent[rng.Intn(len(recent))]
			// Distinct for every warm search of one physics: a physics
			// leaves recent long before 100 warm searches.
			jb.thresholdC = defaultThresholdC - float64(1+nWarm%100)/1e4
			nWarm++
			body["heat_transfer_coeff"] = c.htc
			body["seed"] = c.seed
			body["spatial_surrogate"] = true
			body["interposer_step_mm"] = 2
			body["starts"] = sz.coldStarts
			body["threshold_c"] = jb.thresholdC
		case "scalar":
			body["heat_transfer_coeff"] = freshHTC()
			body["interposer_step_mm"] = 4
			body["starts"] = sz.scalarStarts
		}
		jb.body = mustJSON(body)
		return jb
	}
}

// sweepGen draws batch sweeps.
type sweepGen struct {
	rng     *rand.Rand
	sz      sizes
	cells   []int // permutation of (chiplets, benchmark, spacing) cells
	tcoBens []int // permutation of benchmarks for TCO sweeps
	nSolve  int
	nTCO    int
	recent  [][]byte // bodies of the last four cold solve sweeps
}

// sweepSpacings are the base spacings of solve sweeps: odd multiples of
// 0.5 mm, so a sweep's second spacing cell (base + 0.5 mm) is never
// another sweep's base.
var sweepSpacings = []float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5}

func newSweepGen(rng *rand.Rand, sz sizes) *sweepGen {
	return &sweepGen{
		rng:     rng,
		sz:      sz,
		cells:   rng.Perm(2 * len(benchmarks) * len(sweepSpacings)),
		tcoBens: rng.Perm(len(benchmarks)),
	}
}

// solveSweep is a cold 64-item solve sweep: 4 spacings × 4 DVFS points × 4
// core counts. The first three spacings lie within 0.06 mm of each other,
// inside one 0.5 mm cell (the interposer edge moves by at most 0.36 mm, too
// little to change its cell either), so they coalesce: 32 unique keys. The
// reference recomputes 8 of the representatives (the first member of each
// group, which sits exactly on the grid).
func (g *sweepGen) solveSweep() job {
	c := g.cells[g.nSolve%len(g.cells)]
	g.nSolve++
	n := []int{4, 16}[c%2]
	b := benchmarks[c/2%len(benchmarks)]
	s := sweepSpacings[c/2/len(benchmarks)]
	spacings := []float64{s, s + 0.03, s + 0.06, s + 0.5}
	freqs := []float64{1000, 800, 533, 400}
	cores := []int{64, 128, 192, 256}
	jb := job{path: batchPath, class: "cold", refItems: map[int]solveReq{}}
	for _, si := range []int{0, 3} {
		for k := 0; k < 4; k++ {
			sp := spacings[si]
			jb.refItems[si*16+k*5] = solveReq{
				Placement: placement{Chiplets: n, SpacingMM: &sp},
				Benchmark: b, FreqMHz: freqs[k], Cores: cores[k], GridN: g.sz.sweepGrid,
			}
		}
	}
	jb.body = mustJSON(map[string]any{"sweep": map[string]any{
		"solve":      solveReq{Placement: placement{Chiplets: n}, Benchmark: b, FreqMHz: 533, Cores: 128, GridN: g.sz.sweepGrid},
		"spacing_mm": spacings,
		"freq_mhz":   freqs,
		"cores":      cores,
	}})
	g.recent = append(g.recent, jb.body)
	if len(g.recent) > 4 {
		g.recent = g.recent[1:]
	}
	return jb
}

// tcoSweep is a cold 36-item TCO fleet sweep: 4 tech nodes × {1, 4, 16}
// chiplets per lane × 3 server packings, with the spatial thermal check.
// Each takes a benchmark no earlier TCO sweep used on its grid, so its
// engine calibrates afresh; after the eighth benchmark the grid moves on.
func (g *sweepGen) tcoSweep() job {
	k := g.nTCO
	g.nTCO++
	grid := g.sz.tcoGrids[k/len(benchmarks)%len(g.sz.tcoGrids)]
	return job{path: batchPath, class: "tco", body: mustJSON(map[string]any{"sweep": map[string]any{
		"tco": map[string]any{
			"chiplets": 4, "benchmark": benchmarks[g.tcoBens[k%len(benchmarks)]],
			"freq_mhz": freqsMHz[g.rng.Intn(4)], "cores": 64 * (1 + g.rng.Intn(4)),
			"thermal_check": true, "grid_n": grid,
		},
		"tech_nodes":        []string{"45nm", "28nm", "16nm", "7nm"},
		"chiplets_per_lane": []int{1, 4, 16},
		"lanes_per_server":  []int{4, 8, 16},
	}})}
}

// warm resends one of the last four cold solve sweeps: every item is a
// result-cache hit (those sweeps and the TCO sweeps between them hold
// about 240 of the cache's 512 entries). Solve sweeps only, so every warm
// batch answers alike: a median over resent 64-item solve sweeps and
// 36-item TCO sweeps would jump between the two.
func (g *sweepGen) warm() job {
	return job{path: batchPath, class: "warm", body: g.recent[g.rng.Intn(len(g.recent))]}
}

// sweepPattern fixes the sweep stream's mix per 13 batches: 3 cold solve
// sweeps, 2 cold TCO sweeps, 8 warm resends. The resends come four at a
// time, so most follow another resend rather than a cold sweep (see
// searchPattern).
var sweepPattern = []string{
	"solve", "tco", "warm", "warm", "warm", "warm",
	"solve", "tco", "solve", "warm", "warm", "warm", "warm",
}

func sweepStream(seed int64, sz sizes) func(i int) job {
	g := newSweepGen(rand.New(rand.NewSource(seed)), sz)
	return func(i int) job {
		switch sweepPattern[i%len(sweepPattern)] {
		case "solve":
			return g.solveSweep()
		case "tco":
			return g.tcoSweep()
		default:
			return g.warm()
		}
	}
}

// backgroundStream is the mixed workload's batch lane: a cold solve sweep,
// then four warm resends, repeated. Its cold sweeps have a class of their
// own, so mixed's cold class holds the interactive solves alone.
func backgroundStream(seed int64, sz sizes) func(i int) job {
	g := newSweepGen(rand.New(rand.NewSource(seed)), sz)
	return func(i int) job {
		if i%5 == 0 {
			jb := g.solveSweep()
			jb.class = "background"
			return jb
		}
		return g.warm()
	}
}
