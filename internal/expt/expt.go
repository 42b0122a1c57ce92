// Package expt defines the reproducible experiments behind every table and
// figure in the paper's evaluation (Figs. 3, 5, 6, 7, 8, the Sec. V-B
// headline and sensitivity numbers, and the Sec. III-D greedy-vs-exhaustive
// validation), plus ablation studies for the design choices DESIGN.md calls
// out. The same experiment definitions back the cmd/experiments binary and
// the root-level testing.B benchmarks; a Scale knob switches between the
// paper's full parameterization and a reduced version that completes in
// CI-friendly time.
package expt

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"chiplet25d/internal/org"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/thermal"
)

// Scale selects the experiment size.
type Scale int

const (
	// Reduced runs a coarsened version (fewer sweep points, coarser thermal
	// grid, benchmark subset) preserving every curve's shape.
	Reduced Scale = iota
	// Full runs the paper's parameterization.
	Full
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "reduced"
}

// Options configures an experiment run.
type Options struct {
	Scale Scale
	// ThermalGridN overrides the thermal grid (0 = scale default: 32
	// reduced, 64 full).
	ThermalGridN int
	// Benchmarks restricts the benchmark set (nil = scale default).
	Benchmarks []string
	// Seed for the stochastic greedy searches.
	Seed int64
	// Workers bounds concurrent per-benchmark units in the figure sweeps
	// (0/1 = serial). Purely a wall-clock knob: units write ordered result
	// slots and the evaluation engine's determinism contract keeps every
	// value bit-identical, so tables are the same at any worker count.
	Workers int
}

// DefaultOptions returns reduced-scale options.
func DefaultOptions() Options { return Options{Scale: Reduced, Seed: 1} }

func (o Options) gridN() int {
	if o.ThermalGridN > 0 {
		return o.ThermalGridN
	}
	if o.Scale == Full {
		return 64
	}
	return 32
}

func (o Options) thermalConfig() thermal.Config {
	tc := thermal.DefaultConfig()
	tc.Nx, tc.Ny = o.gridN(), o.gridN()
	return tc
}

// benchSet resolves the benchmark list for this run; defaults holds the
// reduced-scale subset.
func (o Options) benchSet(defaults ...string) ([]perf.Benchmark, error) {
	names := o.Benchmarks
	if names == nil {
		if o.Scale == Full {
			names = perf.Names()
		} else {
			names = defaults
		}
	}
	out := make([]perf.Benchmark, 0, len(names))
	for _, n := range names {
		b, err := perf.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// orgConfig builds the organization-search configuration for a benchmark.
func (o Options) orgConfig(b perf.Benchmark) org.Config {
	cfg := org.DefaultConfig(b)
	cfg.Thermal = o.thermalConfig()
	cfg.Seed = o.Seed
	if o.Scale == Reduced {
		cfg.InterposerStepMM = 2
		cfg.Starts = 5
	}
	return cfg
}

// sharedEngine builds one evaluation engine for this run's physics. The
// engine fingerprint is benchmark-independent, so every unit of a sweep —
// whatever its benchmark, threshold, or objective — shares the same memo
// and concurrent units dedupe overlapping simulations.
func (o Options) sharedEngine(b perf.Benchmark) (*org.Engine, error) {
	return org.NewEngine(o.orgConfig(b))
}

// parallelUnits runs unit(i) for i in [0, n), serially when o.Workers <= 1
// and on min(Workers, n) goroutines otherwise. Units must be independent and
// write only their own result slot; callers merge slots in index order, so
// output is identical at any worker count. The first error by unit index
// wins, matching what the serial loop would have returned.
func (o Options) parallelUnits(n int, unit func(i int) error) error {
	workers := o.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := unit(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = unit(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Table is a rendered experiment result: a header row plus data rows, with
// free-form notes (assumptions, paper-vs-measured commentary).
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteText renders the table as aligned text.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := line(r); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteMarkdown renders the table as a GitHub-flavored markdown table with
// the notes as a trailing list.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | ")); err != nil {
		return err
	}
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | ")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | ")); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		// Multi-line notes (ASCII maps) go into fenced blocks.
		if strings.Contains(n, "\n") {
			if _, err := fmt.Fprintf(w, "\n```\n%s\n```\n", n); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "\n> %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the table as CSV (simple fields; no quoting needed for
// the values these experiments produce).
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(r, ",")); err != nil {
			return err
		}
	}
	return nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
