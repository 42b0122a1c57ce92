package verify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"chiplet25d/internal/serve"
)

// differential/sharded-batch: the horizontal scale-out layer must be
// invisible in the numbers. A sweep executed as one /v1/batch against a
// two-node sharded deployment — where the non-owner answers every memo miss
// by fetching the owner's records over HTTP — must produce results
// bit-identical to the same requests run sequentially against a standalone
// node, search winners included. And the degraded mode must stay correct:
// a node whose only peer is unreachable falls back to local computation
// and still matches the reference bit for bit (correct-but-cold, never
// wrong). This leans on the determinism contracts the earlier differential
// tiers pin (pure-function evaluations, order-independent
// memo) plus one new fact: a SimRecord's float64 fields survive a JSON
// round trip exactly (Go encodes shortest-representation, parses exactly),
// so a fetched record is the record.

// shardCheckGrid is the thermal grid for the check: coarse enough that the
// dozens of simulations behind the sweep and search stay fast, fine enough
// to exercise the real CG path.
const shardCheckGrid = 8

// shardOpts are the serve options shared by every node in the check; the
// worker count is pinned so the only variable across deployments is the
// sharding topology itself.
func shardOpts() serve.Options {
	return serve.Options{
		Workers: 2,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// shardSweep is the batch body: a 12-candidate solve sweep (3 spacings x 2
// frequencies x 2 cores on the 4-chiplet organization) plus one small
// greedy search, all on one physics fingerprint so the two-node deployment
// routes every memo exchange through a single owner.
func shardSweep() string {
	return `{
	  "items": [
	    {"search": {"benchmark": "cholesky", "chiplet_counts": [4], "starts": 1,
	                "seed": 7, "thermal_grid_n": ` + strconv.Itoa(shardCheckGrid) + `}}
	  ],
	  "sweep": {
	    "solve": {"placement": {"chiplets": 4, "spacing_mm": 1}, "benchmark": "cholesky",
	              "freq_mhz": 533, "cores": 128, "grid_n": ` + strconv.Itoa(shardCheckGrid) + `},
	    "spacing_mm": [1, 2, 3],
	    "freq_mhz": [533, 800],
	    "cores": [128, 256]
	  }
	}`
}

func postJSON(client *http.Client, url string, body string, out any) error {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(out)
}

// runBatch posts the check sweep to one node.
func runBatch(client *http.Client, base string) (serve.BatchResponse, error) {
	var br serve.BatchResponse
	err := postJSON(client, base+"/v1/batch", shardSweep(), &br)
	return br, err
}

// compareBatches asserts bit-identical results item by item. Solve items
// compare every scalar field; search items compare the winner, feasibility,
// and baseline — not the work counters (thermal_sims etc.), which
// legitimately differ when evaluations are answered by a peer instead of
// computed.
func compareBatches(label string, got, want serve.BatchResponse) error {
	if got.Total != want.Total {
		return failf("%s: %d items, reference has %d", label, got.Total, want.Total)
	}
	for i := range want.Items {
		g, w := got.Items[i], want.Items[i]
		if g.Status != w.Status {
			return failf("%s item %d: status %d (%s), reference %d", label, i, g.Status, g.Error, w.Status)
		}
		switch {
		case w.Solve != nil:
			if g.Solve == nil {
				return failf("%s item %d: missing solve payload", label, i)
			}
			if g.Solve.PeakC != w.Solve.PeakC || g.Solve.TotalPowerW != w.Solve.TotalPowerW ||
				g.Solve.MeshPowerW != w.Solve.MeshPowerW ||
				g.Solve.LeakageIterations != w.Solve.LeakageIterations ||
				g.Solve.CGIterations != w.Solve.CGIterations {
				return failf("%s item %d: solve diverged: got peak=%v power=%v iters=%d/%d, want peak=%v power=%v iters=%d/%d",
					label, i, g.Solve.PeakC, g.Solve.TotalPowerW, g.Solve.LeakageIterations, g.Solve.CGIterations,
					w.Solve.PeakC, w.Solve.TotalPowerW, w.Solve.LeakageIterations, w.Solve.CGIterations)
			}
		case w.Search != nil:
			if g.Search == nil {
				return failf("%s item %d: missing search payload", label, i)
			}
			if g.Search.Feasible != w.Search.Feasible {
				return failf("%s item %d: feasible=%v, reference %v", label, i, g.Search.Feasible, w.Search.Feasible)
			}
			gb, wb := g.Search.Best, w.Search.Best
			if (gb == nil) != (wb == nil) {
				return failf("%s item %d: winner presence diverged", label, i)
			}
			if gb != nil && *gb != *wb {
				return failf("%s item %d: winner diverged: got %+v, want %+v", label, i, *gb, *wb)
			}
			if g.Search.Baseline != w.Search.Baseline {
				return failf("%s item %d: baseline diverged: got %+v, want %+v", label, i, g.Search.Baseline, w.Search.Baseline)
			}
		}
	}
	return nil
}

// shardView mirrors GET /debug/shard.
type shardView struct {
	Enabled bool     `json:"enabled"`
	Self    string   `json:"self"`
	Nodes   []string `json:"nodes"`
	Engines []struct {
		FingerprintHash string `json:"fingerprint_hash"`
		Owner           string `json:"owner"`
		Owned           bool   `json:"owned"`
	} `json:"engines"`
}

// metricValue scrapes one un-labeled counter from Prometheus text.
func metricValue(client *http.Client, base, name string) (float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name)), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not found on %s", name, base)
}

// proxyServer starts an httptest server whose handler is swappable after
// the fact, breaking the cycle between a node's URL (needed to configure
// its peers) and its construction (which needs the peers' URLs).
func proxyServer() (*httptest.Server, *atomic.Value) {
	var h atomic.Value // http.Handler
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.Load().(http.Handler).ServeHTTP(w, r)
	}))
	return ts, &h
}

func checkShardedBatch(ctx *Context) error {
	client := &http.Client{Timeout: 2 * time.Minute}

	// Reference: a standalone node runs the same requests sequentially —
	// each item its own HTTP call, no batch, no peers.
	ref := serve.New(shardOpts())
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	var want serve.BatchResponse
	{
		var body struct {
			Items []serve.BatchItem    `json:"items"`
			Sweep *serve.SweepTemplate `json:"sweep"`
		}
		if err := json.Unmarshal([]byte(shardSweep()), &body); err != nil {
			return err
		}
		// The reference expands the sweep client-side through the same
		// template type and posts each item to the corresponding single
		// endpoint, so the batch path itself is under test too.
		expanded, err := expandForReference(body.Sweep)
		if err != nil {
			return err
		}
		items := append(body.Items, expanded...)
		for i, it := range items {
			res := serve.BatchItemResult{Index: i, Status: http.StatusOK}
			switch {
			case it.Solve != nil:
				raw, _ := json.Marshal(it.Solve)
				var sr serve.SolveResponse
				if err := postJSON(client, refTS.URL+"/v1/thermal/solve", string(raw), &sr); err != nil {
					return failf("reference solve %d: %v", i, err)
				}
				res.Solve = &sr
			case it.Search != nil:
				raw, _ := json.Marshal(it.Search)
				var sr serve.SearchResponse
				if err := postJSON(client, refTS.URL+"/v1/org/search", string(raw), &sr); err != nil {
					return failf("reference search %d: %v", i, err)
				}
				res.Search = &sr
			}
			want.Items = append(want.Items, res)
		}
		want.Total = len(items)
	}
	ctx.logf("reference: %d sequential requests against a standalone node", want.Total)

	// Two-node deployment: A and B are mutual peers behind swappable
	// handlers (each needs the other's URL before it exists).
	tsA, hA := proxyServer()
	defer tsA.Close()
	tsB, hB := proxyServer()
	defer tsB.Close()
	optsA := shardOpts()
	optsA.SelfURL, optsA.Peers = tsA.URL, []string{tsB.URL}
	optsB := shardOpts()
	optsB.SelfURL, optsB.Peers = tsB.URL, []string{tsA.URL}
	hA.Store(serve.New(optsA).Handler())
	hB.Store(serve.New(optsB).Handler())

	// Probe one solve through A to materialize the engine, then read which
	// node rendezvous hashing made the owner of its fingerprint.
	probe := `{"placement": {"chiplets": 4, "spacing_mm": 1}, "benchmark": "cholesky",
	           "freq_mhz": 533, "cores": 128, "grid_n": ` + strconv.Itoa(shardCheckGrid) + `}`
	var probeResp serve.SolveResponse
	if err := postJSON(client, tsA.URL+"/v1/thermal/solve", probe, &probeResp); err != nil {
		return failf("probe solve: %v", err)
	}
	var sv shardView
	if err := getJSON(client, tsA.URL+"/debug/shard", &sv); err != nil {
		return failf("debug/shard: %v", err)
	}
	if !sv.Enabled || len(sv.Engines) == 0 {
		return failf("sharding not enabled or no resident engine on node A: %+v", sv)
	}
	owner, nonOwner := tsA.URL, tsB.URL
	if sv.Engines[0].Owner == tsB.URL {
		owner, nonOwner = tsB.URL, tsA.URL
	}
	ctx.logf("fingerprint %.12s owned by %s", sv.Engines[0].FingerprintHash, owner)

	// The owner computes the batch locally; the non-owner then answers its
	// memo misses by fetching the owner's records — deterministically, since
	// nothing has warmed the non-owner's engine.
	gotOwner, err := runBatch(client, owner)
	if err != nil {
		return failf("batch via owner: %v", err)
	}
	if err := compareBatches("owner batch", gotOwner, want); err != nil {
		return err
	}
	gotPeer, err := runBatch(client, nonOwner)
	if err != nil {
		return failf("batch via non-owner: %v", err)
	}
	if err := compareBatches("non-owner batch", gotPeer, want); err != nil {
		return err
	}
	hits, err := metricValue(client, nonOwner, "chipletd_eval_peer_hits_total")
	if err != nil {
		return err
	}
	if hits < 1 {
		return failf("non-owner ran the batch without a single peer-fetch hit (got %g)", hits)
	}
	ctx.logf("non-owner answered %g memo misses from the owner's memo", hits)

	// Degraded mode: a node whose only peer is unreachable must fall back
	// to local computation and still match the reference. Candidate self
	// names are tried until rendezvous hashing assigns the fingerprint to
	// the dead peer, so the fallback path is actually exercised.
	const deadPeer = "http://127.0.0.1:9" // discard port: connection refused
	for cand := 0; ; cand++ {
		if cand >= 8 {
			return failf("no candidate self URL yielded dead-peer ownership in 8 tries")
		}
		opts := shardOpts()
		opts.SelfURL = fmt.Sprintf("http://shard-check-self-%d.invalid", cand)
		opts.Peers = []string{deadPeer}
		opts.PeerTimeout = 100 * time.Millisecond
		deg := serve.New(opts)
		degTS := httptest.NewServer(deg.Handler())
		var pr serve.SolveResponse
		if err := postJSON(client, degTS.URL+"/v1/thermal/solve", probe, &pr); err != nil {
			degTS.Close()
			return failf("degraded probe (candidate %d): %v", cand, err)
		}
		var dv shardView
		if err := getJSON(client, degTS.URL+"/debug/shard", &dv); err != nil {
			degTS.Close()
			return failf("degraded debug/shard: %v", err)
		}
		if len(dv.Engines) == 0 || dv.Engines[0].Owned {
			degTS.Close() // this self name owns the fingerprint; try another
			continue
		}
		gotDead, err := runBatch(client, degTS.URL)
		degTS.Close()
		if err != nil {
			return failf("batch with dead peer: %v", err)
		}
		if err := compareBatches("dead-peer batch", gotDead, want); err != nil {
			return err
		}
		ctx.logf("dead-peer fallback matched the reference (self candidate %d)", cand)
		return nil
	}
}

// expandForReference re-expands the sweep template exactly as the server
// does, via the exported type's own expansion — keeping the reference's
// item order aligned with the batch's.
func expandForReference(t *serve.SweepTemplate) ([]serve.BatchItem, error) {
	if t == nil {
		return nil, nil
	}
	return t.Expand()
}
