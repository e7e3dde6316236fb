// Command qosbench is the perf-regression gate: it re-runs the
// simulator's raw-throughput scenarios in-process and compares the
// measured events_per_sec and mallocs_per_event against the committed
// BENCH_<scenario>.json baselines, exiting non-zero when a scenario
// regresses beyond the tolerance.
//
// The scalar scenarios mirror the Go benchmarks that write the baselines
// (BenchmarkSimulationRate and friends): the full-load Advanced
// configuration on the 16-host Clos, bare (simrate), with 2% lifecycle
// tracing (simrate_traced), and with the live metrics plane
// (simrate_metrics). The parsim scenario re-runs the paper-scale sharded
// reference and gates on ns_per_op per shard count.
//
// Throughput gating is only meaningful on a machine that resembles the
// baseline's: the gate refuses to run with GOMAXPROCS <= 1 unless
// -allow-single-cpu is given, and each scenario takes the best of -iters
// repetitions to shave scheduler noise.
//
// Examples:
//
//	qosbench                           # gate simrate scenarios, 25% tolerance
//	qosbench -max-regress 0.4 -iters 7
//	qosbench -scenarios simrate,parsim
//	qosbench -selftest-slowdown 2      # must exit non-zero (gate self-test)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"deadlineqos/internal/cli"
	"deadlineqos/internal/harness"
	"deadlineqos/internal/network"
	"deadlineqos/internal/units"
)

// benchResult and parsimBench hold the fields the gate reads from the
// BENCH_<scenario>.json files the repository's Go benchmarks write (see
// bench_test.go).
type benchResult struct {
	EventsPerSec    float64 `json:"events_per_sec"`
	MallocsPerEvent float64 `json:"mallocs_per_event"`
}

type parsimBench struct {
	Runs []struct {
		Shards  int     `json:"shards"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"runs"`
}

func main() { cli.Main("qosbench", run) }

var (
	scenarios  = flag.String("scenarios", "simrate,simrate_traced,simrate_metrics", "comma-separated scenarios to gate: simrate|simrate_traced|simrate_metrics|parsim")
	baseDir    = flag.String("baseline-dir", ".", "directory holding the committed BENCH_<scenario>.json baselines")
	maxRegress = flag.Float64("max-regress", 0.25, "tolerated fractional regression (0.25 = fail below 75% of baseline throughput)")
	iters      = flag.Int("iters", 5, "measurement repetitions per scenario (best run gates)")
	slowdown   = flag.Float64("selftest-slowdown", 0, "divide the measured throughput by this factor before gating (>1 simulates a regression; the gate must then fail)")
	allowOne   = flag.Bool("allow-single-cpu", false, "run even with GOMAXPROCS <= 1 (throughput baselines are meaningless there)")
)

func run() error {
	if p := runtime.GOMAXPROCS(0); p <= 1 && !*allowOne {
		return fmt.Errorf("GOMAXPROCS=%d: single-CPU throughput is not comparable to the committed baselines (override with -allow-single-cpu)", p)
	}
	if *iters < 1 {
		*iters = 1
	}
	if *slowdown != 0 && *slowdown < 1 {
		return fmt.Errorf("-selftest-slowdown %v must be >= 1", *slowdown)
	}

	failed := 0
	for _, sc := range strings.Split(*scenarios, ",") {
		sc = strings.TrimSpace(sc)
		if sc == "" {
			continue
		}
		var err error
		if sc == "parsim" {
			err = gateParsim(*baseDir, *maxRegress, *slowdown)
		} else {
			err = gateScalar(sc, *baseDir, *maxRegress, *iters, *slowdown)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "qosbench: %s: %v\n", sc, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d scenario(s) regressed", failed)
	}
	fmt.Println("qosbench: all scenarios within tolerance")
	return nil
}

// gateScalar measures one scalar scenario and compares it to its
// baseline file.
func gateScalar(scenario, dir string, tol float64, iters int, slowdown float64) error {
	var base benchResult
	if err := readBaseline(dir, scenario, &base); err != nil {
		return err
	}
	if base.EventsPerSec <= 0 {
		return fmt.Errorf("baseline has no events_per_sec")
	}
	var bestRate, bestAllocs float64
	for i := 0; i < iters; i++ {
		cfg, err := harness.GateConfig(scenario, uint64(i+1))
		if err != nil {
			return err
		}
		res, err := network.Run(cfg)
		if err != nil {
			return err
		}
		pf := res.Perf
		if pf.EventsPerSec > bestRate {
			bestRate, bestAllocs = pf.EventsPerSec, pf.MallocsPerEvent
		}
	}
	if slowdown > 0 {
		bestRate /= slowdown
	}
	ratio := bestRate / base.EventsPerSec
	fmt.Printf("qosbench: %-16s %10.0f ev/s vs baseline %10.0f (%.2fx), %.3f allocs/ev vs %.3f\n",
		scenario, bestRate, base.EventsPerSec, ratio, bestAllocs, base.MallocsPerEvent)
	if ratio < 1-tol {
		return fmt.Errorf("throughput %.0f ev/s is %.1f%% of baseline %.0f (floor %.1f%%)",
			bestRate, 100*ratio, base.EventsPerSec, 100*(1-tol))
	}
	// Allocation pressure gates with the same tolerance plus a small
	// absolute slack so near-zero baselines don't trip on jitter.
	if base.MallocsPerEvent > 0 && bestAllocs > base.MallocsPerEvent*(1+tol)+0.05 {
		return fmt.Errorf("allocation pressure %.3f allocs/ev exceeds baseline %.3f by more than %.0f%%",
			bestAllocs, base.MallocsPerEvent, 100*tol)
	}
	return nil
}

// gateParsim re-runs the paper-scale sharded reference at the baseline's
// shard counts and gates on ns_per_op per row.
func gateParsim(dir string, tol float64, slowdown float64) error {
	var base parsimBench
	if err := readBaseline(dir, "parsim", &base); err != nil {
		return err
	}
	if len(base.Runs) == 0 {
		return fmt.Errorf("baseline has no runs")
	}
	cfg, err := harness.GateConfig("parsim", 1)
	if err != nil {
		return err
	}
	for _, run := range base.Runs {
		if run.NsPerOp <= 0 {
			continue
		}
		c := cfg
		c.Shards = run.Shards
		res, err := network.Run(c)
		if err != nil {
			return err
		}
		ns := float64(res.Perf.WallNs)
		if slowdown > 0 {
			ns *= slowdown
		}
		ratio := ns / run.NsPerOp
		fmt.Printf("qosbench: parsim shards=%d %12.0f ns vs baseline %12.0f (%.2fx)\n",
			run.Shards, ns, run.NsPerOp, ratio)
		if ratio > 1+tol {
			return fmt.Errorf("shards=%d wall %v is %.1f%% of baseline (ceiling %.1f%%)",
				run.Shards, units.Time(ns), 100*ratio, 100*(1+tol))
		}
	}
	return nil
}

// readBaseline decodes the committed BENCH_<scenario>.json in dir into v.
func readBaseline(dir, scenario string, v any) error {
	path := filepath.Join(dir, "BENCH_"+scenario+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
