// Command qossoak runs the randomized fault-and-churn soak harness: a
// sequence of independent epochs, each an 8 ms network run with switch
// outages, port cuts, link flaps, derates, bit errors and dynamic session
// churn, audited after every epoch against the packet-conservation books,
// the structural invariants (switch buffer pools, link credit bounds, the
// admission ledger) and deadline-statistics sanity.
//
// Every epoch derives from (seed, epoch index) alone, so a violation is
// reported with an exact single-epoch replay command that reproduces it
// byte-identically — at any shard count. A failed invariant exits
// non-zero: the command doubles as a robustness gate in CI.
//
// With -metrics-addr the soak serves its live metrics plane over HTTP
// (Prometheus text, JSON, expvar, pprof) while it runs; with -flightrec
// it arms a flight recorder whose recent-event window is dumped to disk
// when an epoch trips an invariant or the deadline-miss-burst SLO.
//
// Examples:
//
//	qossoak -seed 1 -epochs 8
//	qossoak -seed 7 -epochs 4 -shards 4 -switch-faults 3
//	qossoak -seed 7 -first-epoch 2 -epochs 1   (replay one failed epoch)
//	qossoak -epochs 100 -metrics-addr :9100 -flightrec flightrec.jsonl -miss-burst 64
//	qossoak -rogues 2 -police                  (rogue hosts vs the NIC policer)
package main

import (
	"flag"
	"fmt"

	"deadlineqos/internal/cli"
	"deadlineqos/internal/metrics"
	"deadlineqos/internal/soak"
	"deadlineqos/internal/units"
)

func main() {
	opts := optionFlags(flag.CommandLine)
	metricsAddr := cli.MetricsAddrFlag(flag.CommandLine)
	cli.Main("qossoak", func() error { return run(opts(), *metricsAddr) })
}

// optionFlags registers the soak's flags on fs and returns the options
// they select once fs is parsed. A failing epoch's replay recipe must
// parse back through these same definitions to the same epoch.
func optionFlags(fs *flag.FlagSet) func() soak.Options {
	seed := fs.Uint64("seed", 1, "master seed; epoch e runs with a seed derived from (seed, e)")
	epochs := fs.Int("epochs", 4, "number of epochs to run")
	firstEpoch := fs.Int("first-epoch", 0, "index of the first epoch (for replaying a single epoch)")
	shards := cli.ShardsFlag(fs)
	load := fs.Float64("load", 0.8, "offered load per host as a fraction of link bandwidth")
	warmup := cli.DurationFlag(fs, "warmup", units.Millisecond, "per-epoch warm-up period excluded from measurement")
	measure := cli.DurationFlag(fs, "measure", 8*units.Millisecond, "per-epoch measurement window")
	switchFaults := fs.Int("switch-faults", 2, "switch outage pairs per epoch")
	flaps := fs.Int("flaps", 3, "link flap pairs per epoch")
	derates := fs.Int("derates", 2, "bandwidth derate pairs per epoch")
	polName := cli.PolicyFlag(fs)
	coflows := fs.Bool("coflows", false, "attach the ring coflow workload (sigma-order admission) to every epoch")
	rogues := fs.Int("rogues", 0, "RogueFlow misbehaviour windows per epoch")
	forges := fs.Int("forges", 0, "DeadlineForge misbehaviour windows per epoch")
	police := fs.Bool("police", false, "enforce per-flow token-bucket policing at NIC ingress")
	flightrec := fs.String("flightrec", "", "arm the flight recorder; dump the event window to this file on an invariant trip or deadline-miss burst")
	missBurst := fs.Int("miss-burst", 0, "trip the flight recorder when this many deadline misses land within -miss-window (0 = off)")
	missWindow := cli.DurationFlag(fs, "miss-window", units.Millisecond, "deadline-miss-burst window")
	injectFail := fs.Bool("inject-failure", false, "fail the first epoch's audit with a synthetic violation (exercises the flight-dump path; exits non-zero)")
	return func() soak.Options {
		return soak.Options{
			Seed:            *seed,
			Epochs:          *epochs,
			FirstEpoch:      *firstEpoch,
			Shards:          *shards,
			Load:            *load,
			SwitchFaults:    *switchFaults,
			Flaps:           *flaps,
			Derates:         *derates,
			Policy:          *polName,
			Coflows:         *coflows,
			Rogues:          *rogues,
			Forges:          *forges,
			Police:          *police,
			WarmUp:          *warmup,
			Measure:         *measure,
			FlightPath:      *flightrec,
			MissBurstCount:  *missBurst,
			MissBurstWindow: *missWindow,
			InjectFailure:   *injectFail,
		}
	}
}

func run(opt soak.Options, metricsAddr string) error {
	opt.Log = func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}
	if metricsAddr != "" {
		opt.Metrics = metrics.NewRegistry()
		srv, err := cli.StartMetrics(metricsAddr, opt.Metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
	}

	fmt.Printf("soak: seed=%d epochs=[%d, %d) shards=%d load=%.0f%% window=%v+%v faults[switch=%d flaps=%d derates=%d]\n",
		opt.Seed, opt.FirstEpoch, opt.FirstEpoch+opt.Epochs, opt.Shards,
		100*opt.Load, opt.WarmUp, opt.Measure, opt.SwitchFaults, opt.Flaps, opt.Derates)

	rep, err := soak.Run(opt)
	if err != nil {
		return err
	}
	fmt.Printf("soak: %d epochs clean\n", len(rep.Epochs))
	return nil
}
