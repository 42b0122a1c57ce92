// Command chipletorg runs the thermally-aware chiplet organization
// optimization (Eq. (5)) for one benchmark and prints the chosen
// organization, its metrics, and an ASCII placement map.
//
// Usage:
//
//	chipletorg -bench cholesky -alpha 1 -beta 0 -threshold 85
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	chiplet "chiplet25d"
	"chiplet25d/internal/config"
	"chiplet25d/internal/org"
)

// writeConfig archives the effective configuration next to the results.
func writeConfig(path string, cfg org.Config) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return config.Save(f, cfg)
}

func main() {
	var (
		bench     = flag.String("bench", "cholesky", "benchmark name ("+strings.Join(chiplet.BenchmarkNames(), ", ")+")")
		alpha     = flag.Float64("alpha", 1, "objective weight on inverse normalized performance")
		beta      = flag.Float64("beta", 0, "objective weight on normalized cost")
		threshold = flag.Float64("threshold", 85, "peak temperature threshold (°C)")
		grid      = flag.Int("grid", 32, "thermal grid resolution (NxN, divisible by 4)")
		starts    = flag.Int("starts", 10, "multi-start greedy start count m")
		step      = flag.Float64("step", 0.5, "interposer size step (mm)")
		seed      = flag.Int64("seed", 1, "random seed for the greedy search")
		sworkers  = flag.Int("search-workers", 0, "concurrent greedy restarts (0/1 = serial; results are identical at any count)")
		maxCost   = flag.Float64("maxcost", 0, "cap on cost relative to the single chip (0 = uncapped, 1 = iso-cost)")
		spatial   = flag.Bool("spatial", false, "enable the spatial compact-model surrogate tier (decides clear evaluations without a full simulation)")
		cfgPath   = flag.String("config", "", "JSON configuration file (overrides the other flags)")
		saveCfg   = flag.String("savecfg", "", "write the effective configuration as JSON to this path")
	)
	flag.Parse()

	var (
		res chiplet.OptimizeResult
		err error
	)
	if *cfgPath != "" {
		cfg, cerr := config.LoadFile(*cfgPath)
		if cerr != nil {
			fmt.Fprintln(os.Stderr, "chipletorg:", cerr)
			os.Exit(1)
		}
		*bench = cfg.Benchmark.Name
		*threshold = cfg.ThresholdC
		*alpha, *beta = cfg.Objective.Alpha, cfg.Objective.Beta
		if *sworkers > 0 {
			cfg.SearchWorkers = *sworkers
		}
		if *spatial {
			cfg.SpatialSurrogate = true
		}
		if *saveCfg != "" {
			if err := writeConfig(*saveCfg, cfg); err != nil {
				fmt.Fprintln(os.Stderr, "chipletorg:", err)
				os.Exit(1)
			}
		}
		s, serr := org.NewSearcher(cfg)
		if serr != nil {
			fmt.Fprintln(os.Stderr, "chipletorg:", serr)
			os.Exit(1)
		}
		res, err = s.Optimize()
	} else {
		res, err = chiplet.Optimize(*bench, func(c *chiplet.OptimizeConfig) {
			c.Objective = chiplet.Objective{Alpha: *alpha, Beta: *beta}
			c.ThresholdC = *threshold
			c.Thermal.Nx, c.Thermal.Ny = *grid, *grid
			c.Starts = *starts
			c.InterposerStepMM = *step
			c.Seed = *seed
			c.SearchWorkers = *sworkers
			c.MaxNormCost = *maxCost
			c.SpatialSurrogate = *spatial
			if *saveCfg != "" {
				if err := writeConfig(*saveCfg, *c); err != nil {
					fmt.Fprintln(os.Stderr, "chipletorg:", err)
					os.Exit(1)
				}
			}
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "chipletorg:", err)
		os.Exit(1)
	}

	b := res.Baseline
	fmt.Printf("benchmark      %s\n", *bench)
	fmt.Printf("threshold      %.0f °C   objective α=%.2f β=%.2f\n", *threshold, *alpha, *beta)
	fmt.Printf("2D baseline    f=%.0f MHz  p=%d  IPS=%.1f G  peak=%.1f °C  cost=$%.1f\n",
		b.Op.FreqMHz, b.ActiveCores, b.BestIPS, b.PeakC, b.CostUSD)
	if !res.Feasible {
		fmt.Println("result         no feasible 2.5D organization under the threshold")
		return
	}
	o := res.Best
	fmt.Printf("2.5D optimum   n=%d  interposer=%.1f mm  s1=%.1f s2=%.1f s3=%.1f mm\n",
		o.N, o.InterposerMM, o.S1, o.S2, o.S3)
	fmt.Printf("               f=%.0f MHz  p=%d  peak=%.1f °C\n", o.Op.FreqMHz, o.ActiveCores, o.PeakC)
	fmt.Printf("               IPS=%.1f G (%.2fx baseline)  cost=$%.1f (%.2fx baseline)\n",
		o.IPS, o.NormPerf, o.CostUSD, o.NormCost)
	fmt.Printf("               objective value %.4f\n", o.ObjValue)
	fmt.Printf("search         %d thermal simulations, %d surrogate decisions (%d scalar, %d spatial), %d combinations tried\n",
		res.ThermalSims, res.SurrogateHits, res.ScalarSurrogateHits, res.SpatialSurrogateHits, res.CombosTried)
	m, err := chiplet.PlacementMap(o.Placement, o.ActiveCores)
	if err == nil {
		fmt.Printf("\norganization map (#=active core, .=dark core):\n%s\n", m)
	}
}
