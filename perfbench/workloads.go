package main

import (
	"fmt"
	"sort"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/experiments"
	"deadlineqos/internal/metrics"
	"deadlineqos/internal/network"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/traffic"
	"deadlineqos/internal/units"
)

// workload is one benchmark input.
type workload struct {
	// build returns the configuration of one simulation at the given
	// seed. Every call builds fresh observability sinks (registry,
	// tracer), so repeated operations never share state.
	build func(seed uint64) (network.Config, error)
	// subSeeds is how many distinct simulations a run cycles through
	// (see runner): enough that the median of the simulated metrics is
	// steady across run seeds, few enough that each runs at least once
	// in a 30 s budget.
	subSeeds int
}

var workloads = map[string]workload{
	"paper_advanced":     {paperAdvanced, 8},
	"paper_ideal_2shard": {paperIdeal2Shard, 8},
	"churn_protected":    {churnProtected, 16},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// The paper workloads run the §4.1 fabric for a short window: long enough
// for the pending-event set to reach its steady ~33k size and for every
// class to deliver thousands of packets, short enough that one operation
// takes a few host seconds.
const (
	paperWarmUp  = 500 * units.Microsecond
	paperMeasure = 500 * units.Microsecond
)

// paperAdvanced is the paper's headline configuration: the 128-endpoint
// MIN, Advanced 2-VC switches, the Table 1 mix at 100% load, one engine,
// every observability plane off.
func paperAdvanced(seed uint64) (network.Config, error) {
	cfg := network.DefaultConfig()
	cfg.Seed = seed
	cfg.Arch = arch.Advanced2VC
	cfg.WarmUp = paperWarmUp
	cfg.Measure = paperMeasure
	return cfg, nil
}

// paperIdeal2Shard is the same fabric and load under the Ideal
// architecture (deadline heaps on both VCs), split across two engines.
func paperIdeal2Shard(seed uint64) (network.Config, error) {
	cfg, _ := paperAdvanced(seed)
	cfg.Arch = arch.Ideal
	cfg.Shards = 2
	return cfg, nil
}

// Churn workload parameters: E9's small-frame video model (4 ms frames,
// 2 ms target, 200 us eligibility lead) so a short window holds hundreds
// of frame deadlines, under moderate static load plus delegated session
// churn through bounded CAC queues (so admission grants, rejects and
// sheds), link derates and half the hosts babbling at churnRogueFactor.
const (
	churnWarmUp       = 2 * units.Millisecond
	churnMeasure      = 6 * units.Millisecond
	churnLoad         = 0.4
	churnInterArrival = 150 * units.Microsecond
	churnCtlService   = 15 * units.Microsecond // CAC service time per setup
	churnCtlQueueCap  = 4                      // CAC queue slots before shedding
	churnRogueAt      = 200 * units.Microsecond
	churnRogueFactor  = 3
	churnGuardBytes   = 8 * units.Kilobyte
	churnPoliceBurst  = 32 * units.Kilobyte
	churnTraceRate    = 0.02
	churnProbe        = 100 * units.Microsecond
	// churnFaultSeed fixes which links the churn plan derates, and when:
	// the run seed varies the traffic and sessions over one fault plan,
	// so a seed cannot land a deep derate on a host's only cable.
	churnFaultSeed = 11
)

// churnGoP mirrors E9's small-frame GoP: the Table 1 structure at about a
// quarter of the frame sizes, so each frame splits into a dozen parts.
func churnGoP() traffic.GoP {
	return traffic.GoP{
		Pattern: "IBBPBBPBBPBB",
		IMean:   25 * units.Kilobyte, ISigma: 5 * units.Kilobyte / 2,
		PMean: 15 * units.Kilobyte, PSigma: 5 * units.Kilobyte / 2,
		BMean: 25 * units.Kilobyte / 4, BSigma: 5 * units.Kilobyte / 4,
		Min: 5 * units.Kilobyte / 4, Max: 30 * units.Kilobyte,
	}
}

// churnProtected is the control- and protection-plane workload on the
// 16-host Clos: per-flow state is created and torn down (admission
// ledger, NIC flow records, policer buckets) while packets are forwarded,
// with metrics, 2% packet tracing, telemetry probes and the delivery
// oracle on.
func churnProtected(seed uint64) (network.Config, error) {
	cfg := network.SmallConfig()
	cfg.Seed = seed
	cfg.Arch = arch.Advanced2VC
	cfg.WarmUp = churnWarmUp
	cfg.Measure = churnMeasure
	cfg.Load = churnLoad
	cfg.GoP = churnGoP()
	cfg.VideoPeriod = 4 * units.Millisecond
	cfg.VideoTarget = 2 * units.Millisecond
	cfg.EligibleLead = 200 * units.Microsecond

	s := experiments.ChurnSessions(churnInterArrival)
	s.Delegation = true
	s.LocalFrac = 0.5
	s.CtlService = churnCtlService
	s.CtlQueueCap = churnCtlQueueCap
	cfg.Sessions = s

	horizon := cfg.WarmUp + cfg.Measure
	plan := experiments.ChurnPlan(churnFaultSeed, cfg.Topology, horizon)
	rogues := experiments.RoguePlan(cfg.Topology.Hosts(), churnRogueAt, horizon, churnRogueFactor)
	plan.Events = append(plan.Events, rogues.Events...)
	cfg.Faults = plan
	cfg.Police = true
	cfg.PoliceBurst = churnPoliceBurst
	cfg.GuardBytes = churnGuardBytes

	cfg.Metrics = metrics.NewRegistry()
	tr, err := trace.New(trace.Config{SampleRate: churnTraceRate, Seed: seed})
	if err != nil {
		return cfg, fmt.Errorf("churn_protected: tracer: %w", err)
	}
	cfg.Tracer = tr
	cfg.ProbeInterval = churnProbe
	cfg.CheckInvariants = true
	return cfg, nil
}
