package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickRun drives every workload at toy size against a real chipletd
// built from this checkout, traced, so the trace fetch, the self-time
// accounting and the answer checks all run against the real daemon.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots chipletd")
	}
	bin, err := buildDaemon(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		res, err := runOnce(bin, w, 1, 0.5, true, quickSize)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct() {
			t.Errorf("%s: %d of %d failed: %v", w.name, res.failed, res.attempted, res.failures)
		}
		m := res.metrics
		if m["obs.spans_dropped"] != 0 {
			t.Errorf("%s: %g spans dropped", w.name, m["obs.spans_dropped"])
		}
		// Serial requests: self times plus unattributed add up to the
		// client latency.
		if w.name == "solve" || w.name == "search" {
			if c := m["trace.concurrency"]; c < 0.95 || c > 1.05 {
				t.Errorf("%s: trace.concurrency %g, want 1±0.05", w.name, c)
			}
		}
		if m["cold_samples"] == 0 || m["warm_samples"] == 0 || m["items_per_s"] == 0 {
			t.Errorf("%s: a class went unmeasured: %v", w.name, m)
		}
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json's metric lists in
// step with what the command prints.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(key string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s lists %d metrics, the command prints %d", key, len(listed), len(defs))
		}
		units := map[string]string{}
		for _, m := range listed {
			units[m.Name] = m.Unit
		}
		for _, d := range defs {
			if u, ok := units[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s listed with unit %q, printed with %q", key, d.name, u, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
}
