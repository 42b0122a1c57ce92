// Package config loads and saves optimizer configurations as JSON, so
// studies are reproducible artifacts rather than command lines. Every field
// is optional: absent fields keep the paper's defaults from
// org.DefaultConfig, which makes configuration files minimal diffs against
// the paper's setup.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"chiplet25d/internal/cost"
	"chiplet25d/internal/org"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
)

// File is the JSON schema. Pointer fields distinguish "absent" (keep
// default) from explicit zero values.
type File struct {
	// Benchmark names a built-in workload; CustomBenchmark defines one
	// inline (it wins if both are set).
	Benchmark       string          `json:"benchmark,omitempty"`
	CustomBenchmark *perf.Benchmark `json:"custom_benchmark,omitempty"`

	Alpha      *float64 `json:"alpha,omitempty"`
	Beta       *float64 `json:"beta,omitempty"`
	ThresholdC *float64 `json:"threshold_c,omitempty"`

	// ObjectiveMode selects how the search ranks combinations: "eq5"
	// (absent/empty: the paper's Eq. (5)) or "tco" (annual datacenter
	// $/GIPS from the TCO elaboration). Unlike search_workers this knob —
	// and the TCO section below — changes which organization wins, so both
	// are part of a search's cache identity.
	ObjectiveMode string `json:"objective_mode,omitempty"`
	// TCO overrides the datacenter elaboration constants for objective
	// mode "tco" (absent: cost.DefaultTCOParams).
	TCO *cost.TCOParams `json:"tco,omitempty"`

	ChipletCounts  []int    `json:"chiplet_counts,omitempty"`
	InterposerMin  *float64 `json:"interposer_min_mm,omitempty"`
	InterposerMax  *float64 `json:"interposer_max_mm,omitempty"`
	InterposerStep *float64 `json:"interposer_step_mm,omitempty"`

	Starts      *int     `json:"starts,omitempty"`
	Seed        *int64   `json:"seed,omitempty"`
	MaxNormCost *float64 `json:"max_norm_cost,omitempty"`
	// SearchWorkers bounds the greedy restarts (or exhaustive-scan grid
	// points) one search evaluates concurrently (0/absent: serial for the
	// CLIs; absent: GOMAXPROCS for chipletd, whose searches borrow only the
	// pool slots left idle). Purely a wall-clock knob: results are
	// bit-identical at any worker count (org's determinism contract).
	SearchWorkers   *int     `json:"search_workers,omitempty"`
	SurrogateMargin *float64 `json:"surrogate_margin_c,omitempty"`
	// SpatialSurrogate enables the spatial compact-model fidelity tier
	// (absent: off). Its escalation margin is the calibration's recorded
	// worst-case error.
	SpatialSurrogate *bool `json:"spatial_surrogate,omitempty"`

	ThermalGridN      *int     `json:"thermal_grid_n,omitempty"`
	AmbientC          *float64 `json:"ambient_c,omitempty"`
	HeatTransferCoeff *float64 `json:"heat_transfer_coeff,omitempty"`
	BoardHeatTransfer *float64 `json:"board_heat_transfer_coeff,omitempty"`

	Cost    *cost.Params        `json:"cost,omitempty"`
	Leakage *power.LeakageModel `json:"leakage,omitempty"`

	// Server configures the chipletd daemon; the one-shot CLI tools ignore
	// it. A file may contain only this section (no benchmark needed).
	Server *Server `json:"server,omitempty"`
}

// Server is the chipletd daemon section of a configuration file. Pointer
// fields distinguish "absent" (keep default) from explicit zeros, matching
// the rest of the schema.
type Server struct {
	// Addr is the listen address (default ":8080").
	Addr string `json:"addr,omitempty"`
	// Workers bounds concurrent solves (default: GOMAXPROCS).
	Workers *int `json:"workers,omitempty"`
	// QueueDepth bounds the admission queue; beyond it requests are shed
	// with 503 (default 64).
	QueueDepth *int `json:"queue_depth,omitempty"`
	// CacheCapacity bounds the content-addressed result cache in entries
	// (default 512).
	CacheCapacity *int `json:"cache_capacity,omitempty"`
	// RequestTimeoutSec is the per-request deadline in seconds (default 60).
	RequestTimeoutSec *float64 `json:"request_timeout_sec,omitempty"`
	// LogFormat selects the structured log encoding, "text" or "json"
	// (default "text").
	LogFormat string `json:"log_format,omitempty"`
	// LogLevel is the minimum log level: "debug", "info", "warn", or
	// "error" (default "info").
	LogLevel string `json:"log_level,omitempty"`
	// Pprof mounts net/http/pprof under /debug/pprof/ (default off).
	Pprof *bool `json:"pprof,omitempty"`
	// TraceRing is the flight-recorder capacity in traces (default 64).
	TraceRing *int `json:"trace_ring,omitempty"`
	// SlowTraceMS also retains request traces at least this slow (in
	// milliseconds) in the recorder's slow ring (default 2000).
	SlowTraceMS *float64 `json:"slow_trace_ms,omitempty"`
	// OTLPEndpoint is the base URL of an OTLP/HTTP collector; empty disables
	// trace and metric export (the default).
	OTLPEndpoint string `json:"otlp_endpoint,omitempty"`
	// TraceSample is the tail sampler's export probability for unremarkable
	// traces — slow and error traces always export (default 1.0; negative
	// exports only slow/error traces).
	TraceSample *float64 `json:"trace_sample,omitempty"`
	// AuditRing bounds the search convergence audit trail per request and
	// the /debug/search history (default 256; negative disables auditing).
	AuditRing *int `json:"audit_ring,omitempty"`
	// Peers lists the other chipletd nodes of a sharded deployment by base
	// URL; SelfURL is this node's own URL as the peers address it (both
	// required together — see serve.Options). PeerTimeoutMS bounds one memo
	// peer-fetch round trip in milliseconds (default 500).
	Peers         []string `json:"peers,omitempty"`
	SelfURL       string   `json:"self_url,omitempty"`
	PeerTimeoutMS *float64 `json:"peer_timeout_ms,omitempty"`
}

// LoadServer parses JSON from r and returns the server section (zero value
// when the file has none). Unlike Load it does not require a benchmark, so
// daemon-only files work.
func LoadServer(r io.Reader) (Server, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return Server{}, fmt.Errorf("config: %w", err)
	}
	if f.Server == nil {
		return Server{}, nil
	}
	return *f.Server, nil
}

// LoadServerFile loads the server section from a JSON file.
func LoadServerFile(path string) (Server, error) {
	fh, err := os.Open(path)
	if err != nil {
		return Server{}, err
	}
	defer fh.Close()
	return LoadServer(fh)
}

// ToConfig resolves the file against the paper defaults.
func (f *File) ToConfig() (org.Config, error) {
	var bench perf.Benchmark
	switch {
	case f.CustomBenchmark != nil:
		bench = *f.CustomBenchmark
	case f.Benchmark != "":
		b, err := perf.ByName(f.Benchmark)
		if err != nil {
			return org.Config{}, err
		}
		bench = b
	default:
		return org.Config{}, fmt.Errorf("config: no benchmark specified (set \"benchmark\" or \"custom_benchmark\")")
	}
	cfg := org.DefaultConfig(bench)
	setF := func(dst *float64, src *float64) {
		if src != nil {
			*dst = *src
		}
	}
	setF(&cfg.Objective.Alpha, f.Alpha)
	setF(&cfg.Objective.Beta, f.Beta)
	setF(&cfg.ThresholdC, f.ThresholdC)
	if f.ObjectiveMode != "" {
		cfg.ObjectiveMode = f.ObjectiveMode
	}
	if f.TCO != nil {
		cfg.TCO = *f.TCO
	}
	if f.ChipletCounts != nil {
		cfg.ChipletCounts = f.ChipletCounts
	}
	setF(&cfg.InterposerMinMM, f.InterposerMin)
	setF(&cfg.InterposerMaxMM, f.InterposerMax)
	setF(&cfg.InterposerStepMM, f.InterposerStep)
	if f.Starts != nil {
		cfg.Starts = *f.Starts
	}
	if f.Seed != nil {
		cfg.Seed = *f.Seed
	}
	setF(&cfg.MaxNormCost, f.MaxNormCost)
	if f.SearchWorkers != nil {
		cfg.SearchWorkers = *f.SearchWorkers
	}
	setF(&cfg.SurrogateMarginC, f.SurrogateMargin)
	if f.SpatialSurrogate != nil {
		cfg.SpatialSurrogate = *f.SpatialSurrogate
	}
	if f.ThermalGridN != nil {
		cfg.Thermal.Nx, cfg.Thermal.Ny = *f.ThermalGridN, *f.ThermalGridN
	}
	setF(&cfg.Thermal.AmbientC, f.AmbientC)
	setF(&cfg.Thermal.HeatTransferCoeff, f.HeatTransferCoeff)
	setF(&cfg.Thermal.BoardHeatTransferCoeff, f.BoardHeatTransfer)
	if f.Cost != nil {
		cfg.CostParams = *f.Cost
	}
	if f.Leakage != nil {
		cfg.Leakage = *f.Leakage
	}
	if err := cfg.Validate(); err != nil {
		return org.Config{}, err
	}
	return cfg, nil
}

// Load parses JSON from r and resolves it into a configuration.
func Load(r io.Reader) (org.Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return org.Config{}, fmt.Errorf("config: %w", err)
	}
	return f.ToConfig()
}

// LoadFile loads a configuration from a JSON file.
func LoadFile(path string) (org.Config, error) {
	fh, err := os.Open(path)
	if err != nil {
		return org.Config{}, err
	}
	defer fh.Close()
	return Load(fh)
}

// Save writes a complete (fully explicit) configuration file for cfg, so a
// run's exact setup can be archived next to its results.
func Save(w io.Writer, cfg org.Config) error {
	f := File{
		CustomBenchmark:   &cfg.Benchmark,
		Alpha:             &cfg.Objective.Alpha,
		Beta:              &cfg.Objective.Beta,
		ThresholdC:        &cfg.ThresholdC,
		ObjectiveMode:     cfg.ObjectiveMode,
		TCO:               &cfg.TCO,
		ChipletCounts:     cfg.ChipletCounts,
		InterposerMin:     &cfg.InterposerMinMM,
		InterposerMax:     &cfg.InterposerMaxMM,
		InterposerStep:    &cfg.InterposerStepMM,
		Starts:            &cfg.Starts,
		Seed:              &cfg.Seed,
		MaxNormCost:       &cfg.MaxNormCost,
		SearchWorkers:     &cfg.SearchWorkers,
		SurrogateMargin:   &cfg.SurrogateMarginC,
		SpatialSurrogate:  &cfg.SpatialSurrogate,
		ThermalGridN:      &cfg.Thermal.Nx,
		AmbientC:          &cfg.Thermal.AmbientC,
		HeatTransferCoeff: &cfg.Thermal.HeatTransferCoeff,
		BoardHeatTransfer: &cfg.Thermal.BoardHeatTransferCoeff,
		Cost:              &cfg.CostParams,
		Leakage:           &cfg.Leakage,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&f)
}
