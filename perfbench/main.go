// Command perfbench is the simulator's benchmark. Each invocation runs one
// workload in a closed loop — one simulation at a time, each built from
// the given seed — for a fixed host-time budget, checks every run's
// output, and prints its metrics. The last line of standard output is a
// JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 0.11, "unit": "s"}, ...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of a separate run of the same workload and seed
// (timed-run counters, a CPU profile grouped by package, and isolated
// drives of each layer's public API). --check-shards instead runs every
// workload at one and two shards and requires equal statistics digests.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper_advanced --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --check-shards --seed 1
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "host seconds to measure for")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced run")
	checkShards := fs.Bool("check-shards", false, "run each workload (or --workload) at 1 and 2 shards and compare digests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *checkShards {
		names := workloadNames()
		if *name != "" {
			names = []string{*name}
		}
		return checkShardDigests(names, *seed, stdout, stderr)
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	r := newRunner(*name, w, *seed, stdout)
	budget := time.Duration(*seconds * float64(time.Second))
	var (
		ms  map[string]metric
		err error
	)
	if *traced == 1 {
		ms, err = perLayer(r, budget)
	} else {
		ms, err = endToEnd(r, budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s is %v\n", *name, k, m.Value)
			return 1
		}
	}
	out, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   ms,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// checkShardDigests runs each workload's configuration at one and at two
// shards and requires identical statistics digests: sharding may change
// only the engine event count, never a simulated statistic.
func checkShardDigests(names []string, seed uint64, stdout, stderr io.Writer) int {
	bad := 0
	for _, name := range names {
		w, ok := workloads[name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", name)
			return 2
		}
		var digests [2]string
		for i, shards := range []int{1, 2} {
			cfg, err := w.build(seed)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
				return 1
			}
			cfg.Shards = shards
			o, err := runOp(cfg, name, nil)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s shards=%d: %v\n", name, shards, err)
				return 1
			}
			if o.err != nil {
				fmt.Fprintf(stdout, "%s shards=%d: output check failed: %v\n", name, shards, o.err)
				bad++
			}
			digests[i] = o.digest
			fmt.Fprintf(stdout, "%s shards=%d events=%d digest=%s\n", name, shards, o.res.SimEvents, o.digest)
		}
		if digests[0] != digests[1] {
			fmt.Fprintf(stdout, "%s: MISMATCH between 1 and 2 shards\n", name)
			bad++
		} else {
			fmt.Fprintf(stdout, "%s: digests equal at 1 and 2 shards\n", name)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
