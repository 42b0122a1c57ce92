// Command thermalsim runs one steady-state thermal simulation of a chiplet
// organization running a benchmark, and prints the converged peak
// temperature, power, and placement map.
//
// Usage:
//
//	thermalsim -chiplets 16 -s1 1 -s2 0.5 -s3 2 -bench shock -freq 1000 -cores 256
//	thermalsim -chiplets 4 -spacing 6 -bench canneal
//	thermalsim -chiplets 1 -bench cholesky -freq 533
//	thermalsim -chiplets 16 -s1 1 -s2 1 -s3 2 -surrogate    # spatial model vs. simulation
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	chiplet "chiplet25d"
	"chiplet25d/internal/org"
	"chiplet25d/internal/perf"
	"chiplet25d/internal/power"
)

func main() {
	var (
		n       = flag.Int("chiplets", 1, "chiplet count: 1 (single chip), 4, 16, or a square r*r for -spacing mode")
		spacing = flag.Float64("spacing", -1, "uniform spacing (mm); if set, places chiplets in a uniform matrix")
		s1      = flag.Float64("s1", 0, "paper spacing s1 (mm), 16-chiplet organizations")
		s2      = flag.Float64("s2", 0, "paper spacing s2 (mm), 16-chiplet organizations")
		s3      = flag.Float64("s3", 0, "paper spacing s3 (mm)")
		bench   = flag.String("bench", "cholesky", "benchmark ("+strings.Join(chiplet.BenchmarkNames(), ", ")+")")
		freq    = flag.Float64("freq", 1000, "frequency (MHz) from the DVFS table")
		cores   = flag.Int("cores", 256, "active core count (MinTemp allocation)")
		grid    = flag.Int("grid", 64, "thermal grid resolution")
		showMap = flag.Bool("map", true, "print the placement map")
		heat    = flag.Bool("heatmap", false, "print the ASCII temperature heatmap")
		pgm     = flag.String("pgm", "", "write the temperature field as a PGM image to this path")
		csv     = flag.String("fieldcsv", "", "write the temperature field as CSV to this path")
		surr    = flag.Bool("surrogate", false, "also run the spatial surrogate and print predicted vs. simulated peak")
	)
	flag.Parse()

	var (
		pl  chiplet.Placement
		err error
	)
	switch {
	case *n == 1:
		pl = chiplet.SingleChip()
	case *spacing >= 0:
		r := 1
		for r*r < *n {
			r++
		}
		if r*r != *n {
			fatal(fmt.Errorf("chiplet count %d is not a square", *n))
		}
		pl, err = chiplet.UniformGrid(r, *spacing)
	default:
		pl, err = chiplet.PaperOrg(*n, *s1, *s2, *s3)
	}
	if err != nil {
		fatal(err)
	}

	res, err := chiplet.PeakTemperature(pl, *bench, *freq, *cores, &chiplet.SimOptions{GridN: *grid})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("placement      %d chiplet(s), footprint %.1f x %.1f mm\n", pl.NumChiplets(), pl.W, pl.H)
	if !pl.Is2D() {
		fmt.Printf("spacings       s1=%.1f s2=%.1f s3=%.1f mm\n", pl.S1, pl.S2, pl.S3)
		fmt.Printf("cost           $%.1f (%.2fx the single chip)\n",
			chiplet.SystemCost(pl), chiplet.NormalizedCost(pl))
	} else {
		fmt.Printf("cost           $%.1f\n", chiplet.SystemCost(pl))
	}
	fmt.Printf("workload       %s at %.0f MHz, %d active cores\n", *bench, *freq, *cores)
	fmt.Printf("peak           %.1f °C (ambient 45 °C)\n", res.PeakC)
	fmt.Printf("power          %.1f W total, %.1f W mesh NoC\n", res.TotalPowerW, res.MeshPowerW)
	if *surr {
		if err := printSurrogate(pl, *bench, *freq, *cores, *grid, res.PeakC); err != nil {
			fatal(err)
		}
	}
	if *showMap {
		m, err := chiplet.PlacementMap(pl, *cores)
		if err == nil {
			fmt.Printf("\n%s\n", m)
		}
	}
	if *heat {
		fmt.Printf("\n%s", res.HeatmapASCII())
	}
	if *pgm != "" {
		f, err := os.Create(*pgm)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteHeatmapPGM(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote heatmap to %s\n", *pgm)
	}
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteFieldCSV(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote field CSV to %s\n", *csv)
	}
}

// printSurrogate calibrates the spatial compact model on this placement's
// chiplet class (running its design-of-experiments simulations at the same
// grid resolution) and prints the model's peak prediction next to the full
// simulation — a quick operator check of the fidelity tier's accuracy.
func printSurrogate(pl chiplet.Placement, bench string, freq float64, cores, grid int, simPeakC float64) error {
	b, err := perf.ByName(bench)
	if err != nil {
		return err
	}
	var op power.DVFSPoint
	found := false
	for _, o := range power.FrequencySet {
		if o.FreqMHz == freq {
			op, found = o, true
			break
		}
	}
	if !found {
		return fmt.Errorf("freq %g MHz not in the DVFS table", freq)
	}
	cfg := org.DefaultConfig(b)
	cfg.Thermal.Nx, cfg.Thermal.Ny = grid, grid
	eng, err := org.NewEngine(cfg)
	if err != nil {
		return err
	}
	ctx := context.Background()
	cal, err := eng.SpatialCalibration(ctx, b, pl.NumChiplets())
	if err != nil {
		return err
	}
	pred, err := eng.SpatialPredictPeakC(ctx, b, pl, op, cores)
	if err != nil {
		return err
	}
	fmt.Printf("surrogate      calibrated on %d+%d DoE points, spread %.2f mm, bound ±%.2f °C\n",
		cal.Samples, cal.HoldoutSamples, cal.Params.SpreadMM, cal.WorstCaseErrC)
	fmt.Printf("               predicted %.1f °C, simulated %.1f °C, error %+.2f °C\n",
		pred, simPeakC, pred-simPeakC)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "thermalsim:", err)
	os.Exit(1)
}
