// Command sweep regenerates one of the paper's figures by sweeping input
// load across switch architectures.
//
// Examples:
//
//	sweep -figure 2 -scale quick          # Control latency + CDF, 16 hosts
//	sweep -figure 4 -scale paper          # best-effort throughput, full MIN
//	sweep -figure 3 -loads 0.5,1.0 -csv   # CSV for external plotting
package main

import (
	"flag"
	"fmt"

	"deadlineqos/internal/cli"
	"deadlineqos/internal/experiments"
	"deadlineqos/internal/report"
)

func main() { cli.Main("sweep", run) }

var (
	figure = flag.Int("figure", 2, "paper figure to regenerate: 2 (Control), 3 (Video), 4 (best-effort)")
	scale  = flag.String("scale", "quick", "experiment scale: quick|paper")
	loads  = flag.String("loads", "", "comma-separated loads overriding the scale's sweep")
	par    = cli.ParFlag(flag.CommandLine)
	shards = cli.ShardsFlag(flag.CommandLine)
	seed   = flag.Uint64("seed", 1, "random seed")
	seeds  = flag.String("seeds", "", "comma-separated seed list: figure 2 reports mean±std across them")
	csv    = flag.Bool("csv", false, "emit CSV instead of tables and plots")
)

func run() error {
	opt, err := cli.SuiteOptions(*scale, *loads, *par, *shards, *seed)
	if err != nil {
		return err
	}

	emit := func(tables []*report.Table, plots []*report.Plot) {
		for _, t := range tables {
			if *csv {
				fmt.Print(t.CSV())
				fmt.Println()
			} else {
				fmt.Println(t)
			}
		}
		if !*csv {
			for _, p := range plots {
				fmt.Println(p)
			}
		}
	}

	switch *figure {
	case 2:
		if *seeds != "" {
			list, err := cli.ParseSeeds(*seeds)
			if err != nil {
				return err
			}
			t, err := experiments.Fig2Confidence(opt, list)
			if err != nil {
				return err
			}
			emit([]*report.Table{t}, nil)
			return nil
		}
		lat, cdf, plot, err := experiments.Fig2(opt)
		if err != nil {
			return err
		}
		emit([]*report.Table{lat, cdf}, []*report.Plot{plot})
	case 3:
		lat, cdf, plot, err := experiments.Fig3(opt)
		if err != nil {
			return err
		}
		emit([]*report.Table{lat, cdf}, []*report.Plot{plot})
	case 4:
		t, plot, err := experiments.Fig4(opt)
		if err != nil {
			return err
		}
		emit([]*report.Table{t}, []*report.Plot{plot})
	default:
		return fmt.Errorf("unknown figure %d (want 2, 3 or 4)", *figure)
	}
	return nil
}
