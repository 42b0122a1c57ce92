package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// ledger is the record of a set of runs: every metric of every workload
// over seeds 1..runs, with the answer digest of each seed.
type ledger struct {
	NumCPU    int                        `json:"num_cpu"`
	Revision  string                     `json:"revision"`
	Seconds   float64                    `json:"seconds"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*workloadLedger `json:"workloads"`
}

type workloadLedger struct {
	Digests map[string]string   `json:"digests"` // seed -> answer digest
	Metrics map[string]*summary `json:"metrics"`
}

// summary is one metric over the runs of a ledger.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Spread float64   `json:"spread"` // interquartile range over the median
	Values []float64 `json:"values"` // in seed order
}

func summarize(unit string, values []float64) *summary {
	s := sorted(values)
	return &summary{Unit: unit, Median: median(s), Min: s[0], Max: s[len(s)-1], Spread: spread(s), Values: values}
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

func writeLedger(path string, l *ledger) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// bound is an end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(root string) (map[string]bound, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]bound{}
	for _, b := range spec.EndToEnd {
		out[b.Name] = b
	}
	return out, nil
}

// Verdicts.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
)

// verdict judges cur against prev for a metric with bound b. A change
// counts as worse past the bound and as better past the earlier runs' own
// spread. Where that spread is wider than the bound, the metric is
// unresolved unless every current run reads better than every earlier one.
func verdict(prev, cur *summary, b bound) string {
	sign, allBetter := 1.0, cur.Min > prev.Max // sign: positive change = better
	if b.Better == "lower" {
		sign, allBetter = -1, cur.Max < prev.Min
	}
	change := sign * (cur.Median - prev.Median) / prev.Median
	if prev.Spread > b.Bound {
		if allBetter {
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch {
	case change < -b.Bound:
		return verdictWorse
	case change > prev.Spread:
		return verdictBetter
	default:
		return verdictWithin
	}
}

// compareLedgers prints one line per workload and metric and returns the
// number of failures: end-to-end metrics judged worse, and digests that
// differ for a seed both ledgers ran.
func compareLedgers(w io.Writer, prev, cur *ledger, bounds map[string]bound) int {
	failures := 0
	fmt.Fprintf(w, "%-8s %-34s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "prev", "cur", "change", "spread", "bound", "verdict")
	for _, wl := range sortedKeys(cur.Workloads) {
		cw, pw := cur.Workloads[wl], prev.Workloads[wl]
		if pw == nil {
			fmt.Fprintf(w, "%-8s (not in the earlier ledger)\n", wl)
			continue
		}
		for _, seed := range sortedKeys(cw.Digests) {
			if d, pd := cw.Digests[seed], pw.Digests[seed]; pd != "" && pd != d {
				fmt.Fprintf(w, "%-8s answer digest of seed %s: %s, was %s: FAIL\n", wl, seed, d, pd)
				failures++
			}
		}
		for _, def := range append(endToEndMetrics, perLayerMetrics...) {
			c, p := cw.Metrics[def.name], pw.Metrics[def.name]
			if c == nil || p == nil {
				continue
			}
			change := "-"
			if p.Median != 0 {
				change = strconv.FormatFloat(100*(c.Median-p.Median)/p.Median, 'f', 1, 64) + "%"
			}
			v, bnd := "info", "-"
			if b, ok := bounds[def.name]; ok && p.Median != 0 {
				v, bnd = verdict(p, c, b), fmt.Sprintf("%.0f%%", 100*b.Bound)
				if v == verdictWorse {
					failures++
				}
			}
			fmt.Fprintf(w, "%-8s %-34s %12.4g %12.4g %8s %7.1f%% %7s  %s\n",
				wl, def.name, p.Median, c.Median, change, 100*p.Spread, bnd, v)
		}
	}
	return failures
}
