package config

import (
	"bytes"
	"strings"
	"testing"

	"chiplet25d/internal/org"
	"chiplet25d/internal/perf"
)

func TestLoadMinimal(t *testing.T) {
	cfg, err := Load(strings.NewReader(`{"benchmark": "cholesky"}`))
	if err != nil {
		t.Fatal(err)
	}
	// Defaults preserved.
	def := org.DefaultConfig(cfg.Benchmark)
	if cfg.ThresholdC != def.ThresholdC || cfg.Starts != def.Starts {
		t.Fatalf("defaults not preserved: %+v", cfg)
	}
	if cfg.Benchmark.Name != "cholesky" {
		t.Fatalf("benchmark = %q", cfg.Benchmark.Name)
	}
}

func TestLoadOverrides(t *testing.T) {
	cfg, err := Load(strings.NewReader(`{
		"benchmark": "canneal",
		"alpha": 0.5, "beta": 0.5,
		"threshold_c": 95,
		"chiplet_counts": [4],
		"interposer_step_mm": 2,
		"starts": 3,
		"seed": 42,
		"thermal_grid_n": 16,
		"ambient_c": 40,
		"board_heat_transfer_coeff": 100
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Objective.Alpha != 0.5 || cfg.ThresholdC != 95 || cfg.Seed != 42 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	if len(cfg.ChipletCounts) != 1 || cfg.ChipletCounts[0] != 4 {
		t.Fatalf("chiplet counts = %v", cfg.ChipletCounts)
	}
	if cfg.Thermal.Nx != 16 || cfg.Thermal.AmbientC != 40 || cfg.Thermal.BoardHeatTransferCoeff != 100 {
		t.Fatalf("thermal overrides not applied: %+v", cfg.Thermal)
	}
}

func TestLoadCustomBenchmark(t *testing.T) {
	cfg, err := Load(strings.NewReader(`{
		"custom_benchmark": {
			"Name": "mykernel", "Suite": "local", "Class": 2,
			"RefCoreW": 1.5, "BaseIPC": 1.0, "MemFrac": 0.2,
			"Psat": 700, "Gamma": 2.0, "Traffic": 0.05
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Benchmark.Name != "mykernel" || cfg.Benchmark.Class != perf.HighPower {
		t.Fatalf("custom benchmark not loaded: %+v", cfg.Benchmark)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader(`{}`)); err == nil {
		t.Errorf("expected error for missing benchmark")
	}
	if _, err := Load(strings.NewReader(`{"benchmark": "doom"}`)); err == nil {
		t.Errorf("expected error for unknown benchmark")
	}
	if _, err := Load(strings.NewReader(`{"benchmark": "shock", "bogus": 1}`)); err == nil {
		t.Errorf("expected error for unknown field")
	}
	if _, err := Load(strings.NewReader(`{"benchmark": "shock", "threshold_c": 10}`)); err == nil {
		t.Errorf("expected validation error for threshold below ambient")
	}
	if _, err := Load(strings.NewReader(`not json`)); err == nil {
		t.Errorf("expected parse error")
	}
	// Removed solver and worker knobs are unknown fields, at the top level
	// and in the server section, so a stale config fails loudly.
	for _, field := range []string{
		`"warm_start": true`, `"warm_start_cache": 8`, `"preconditioner": "mg"`,
		`"kernel_threads": 2`, `"parallel_workers": 2`, `"spatial_margin_c": 1`,
	} {
		if _, err := Load(strings.NewReader(`{"benchmark": "shock", ` + field + `}`)); err == nil {
			t.Errorf("expected error for removed field %s", field)
		}
		if _, err := LoadServer(strings.NewReader(`{"server": {` + field + `}}`)); err == nil {
			t.Errorf("expected error for removed server field %s", field)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	b, err := perf.ByName("hpccg")
	if err != nil {
		t.Fatal(err)
	}
	cfg := org.DefaultConfig(b)
	cfg.ThresholdC = 95
	cfg.Objective = org.Objective{Alpha: 0.3, Beta: 0.7}
	cfg.Seed = 99
	cfg.Thermal.Nx, cfg.Thermal.Ny = 16, 16
	var buf bytes.Buffer
	if err := Save(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ThresholdC != 95 || got.Objective != cfg.Objective || got.Seed != 99 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Benchmark.Name != "hpccg" || got.Thermal.Nx != 16 {
		t.Fatalf("round trip benchmark/grid wrong: %+v", got)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/config.json"); err == nil {
		t.Errorf("expected error for missing file")
	}
}
