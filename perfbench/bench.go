package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"deadlineqos/internal/network"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/pqueue"
	"deadlineqos/internal/units"
)

// setupReps is how many extra network builds an end-to-end run times on
// top of the one in every operation, so setup_s is a median of several
// samples even when only a few operations fit in the budget.
const setupReps = 8

// runner executes the operations of one workload at one seed and keeps
// the attempted/failed tally. A run cycles through the workload's
// sub-seeds: operation i simulates sub-seed i mod n of the run seed, with
// simulation seed n × seed + k, so distinct run seeds never share one. A
// single short simulation's tail latency and throughput swing by tens of
// percent from seed to seed; the run reports the median over its
// sub-seeds, which is still exact for the run seed. Every operation must
// reproduce the digest and simulated metrics of the run's first
// operation on the same sub-seed: the simulator is deterministic, so a
// difference is a failure, not noise.
type runner struct {
	name string
	w    workload
	seed uint64
	log  io.Writer

	attempted, failed int
	seen              []bool
	digests           []string
	sims              []simMetrics
}

func newRunner(name string, w workload, seed uint64, log io.Writer) *runner {
	return &runner{name: name, w: w, seed: seed, log: log,
		seen: make([]bool, w.subSeeds), digests: make([]string, w.subSeeds), sims: make([]simMetrics, w.subSeeds)}
}

// simSeed returns the simulation seed of sub-seed k.
func (r *runner) simSeed(k int) uint64 { return r.seed*uint64(r.w.subSeeds) + uint64(k) }

// op runs one operation on sub-seed k, optionally under a CPU profile
// written to prof.
func (r *runner) op(k int, prof io.Writer) (*op, error) {
	cfg, err := r.w.build(r.simSeed(k))
	if err != nil {
		return nil, err
	}
	o, err := runOp(cfg, r.name, prof)
	if err != nil {
		return nil, err
	}
	r.attempted++
	if o.err == nil {
		if !r.seen[k] {
			r.seen[k], r.digests[k], r.sims[k] = true, o.digest, o.sim
		} else if o.digest != r.digests[k] || o.sim != r.sims[k] {
			o.err = fmt.Errorf("run %d differs from the first run of sub-seed %d (digest %s, want %s)",
				r.attempted, k, o.digest, r.digests[k])
		}
	}
	if o.err != nil {
		r.failed++
		fmt.Fprintf(r.log, "# run %d FAILED: %v\n", r.attempted, o.err)
	}
	fmt.Fprintf(r.log, "# run %d (sub-seed %d): setup %.3fs run %.3fs cpu %.3fs events %d digest %.16s\n",
		r.attempted, k, o.setup.Seconds(), o.wall.Seconds(), o.cpu.Seconds(), o.res.SimEvents, o.digest)
	return o, nil
}

// simulated returns the median of each simulated metric over the
// sub-seeds the run has checked.
func (r *runner) simulated() simMetrics {
	var ctrl, be []float64
	for k, ok := range r.seen {
		if ok {
			ctrl = append(ctrl, r.sims[k].CtrlP99Us)
			be = append(be, r.sims[k].BEThroughputPct)
		}
	}
	return simMetrics{CtrlP99Us: median(ctrl), BEThroughputPct: median(be)}
}

// simulatedUs is the simulated time one operation advances, in µs.
func simulatedUs(res *network.Results) float64 {
	return (res.Config.WarmUp + res.Config.Measure).Microseconds()
}

// endToEnd measures the end-to-end metrics: repeated builds for setup_s,
// then operations until the budget is spent (at least one per sub-seed),
// reporting medians over operations. Host times are calibrated (see
// calib.go); the raw figures go to the log.
func endToEnd(r *runner, budget time.Duration) (map[string]metric, error) {
	start := time.Now()
	cal := newCalibration()
	var rawSetups []float64
	for i := 0; i < setupReps; i++ {
		cfg, err := r.w.build(r.simSeed(i % r.w.subSeeds))
		if err != nil {
			return nil, err
		}
		debug.FreeOSMemory() // as before every operation's build
		t0 := time.Now()
		if _, err := network.New(cfg); err != nil {
			return nil, err
		}
		rawSetups = append(rawSetups, time.Since(t0).Seconds())
	}
	f := cal.next()
	var setups, rates, cpus, rawRates []float64
	for _, s := range rawSetups {
		setups = append(setups, s*f)
	}
	for r.attempted < r.w.subSeeds || time.Since(start) < budget {
		o, err := r.op(r.attempted%r.w.subSeeds, nil)
		if err != nil {
			return nil, err
		}
		f := cal.next()
		setups = append(setups, o.setup.Seconds()*f)
		rates = append(rates, simulatedUs(o.res)/(o.wall.Seconds()*f))
		rawRates = append(rawRates, simulatedUs(o.res)/o.wall.Seconds())
		cpus = append(cpus, o.cpu.Seconds()*f)
	}
	q1, q2, q3 := quartiles(rates)
	fmt.Fprintf(r.log, "# %s seed %d: %d runs; sim_us_per_s quartiles %.2f %.2f %.2f; raw median %.2f, raw setup %.4fs; reference median %.1f ms\n",
		r.name, r.seed, len(rates), q1, q2, q3, median(rawRates), median(rawSetups), 1000*median(cal.refs))
	for k, ok := range r.seen {
		if ok {
			fmt.Fprintf(r.log, "# sub-seed %d digest %s simulated %+v\n", k, r.digests[k], r.sims[k])
		}
	}
	sim := r.simulated()
	return map[string]metric{
		"setup_s":           {median(setups), "s"},
		"sim_us_per_s":      {median(rates), "us/s"},
		"cpu_s":             {median(cpus), "s"},
		"max_rss_mb":        {maxRSSMB(), "MB"},
		"ctrl_p99_us":       {sim.CtrlP99Us, "us"},
		"be_throughput_pct": {sim.BEThroughputPct, "%"},
	}, nil
}

// counts are the per-layer work counters of one timed (unprofiled) run,
// plus the operating point the isolated drives reproduce.
type counts struct {
	cfg     network.Config
	shards  int
	horizon units.Time
	cpu     time.Duration

	events, generated, delivered uint64
	maxPending                   int
	xbar, takeovers, linkSends   uint64
	staged, inNetwork            uint64
	demoted, forged              uint64
	setupsSent, rejected, shed   uint64
	mallocs, allocBytes          uint64
	gcs                          uint32
	regulatedShare               float64 // regulated share of generated packets
	activeFlows                  int     // admission ledger size at the horizon
	ports                        int     // switch ports in the fabric
	sim                          simMetrics
}

func countsOf(o *op) counts {
	res := o.res
	c := counts{
		cfg:        res.Config,
		shards:     o.net.Shards(),
		horizon:    res.Config.WarmUp + res.Config.Measure,
		cpu:        o.cpu,
		events:     res.SimEvents,
		generated:  res.Conservation.Generated,
		delivered:  res.Conservation.DeliveredUnique,
		maxPending: res.Perf.MaxPending,
		xbar:       res.XbarTransfers,
		takeovers:  res.TakeOvers,
		linkSends:  res.LinkSends,
		staged:     res.Conservation.StagedAtStop,
		inNetwork:  res.Conservation.InNetworkAtStop,
		mallocs:    res.Perf.Mallocs,
		allocBytes: res.Perf.AllocBytes,
		gcs:        o.gcs,
		sim:        o.sim,
	}
	if p := res.Police; p != nil {
		c.demoted, c.forged = p.Demoted, p.Forged
	}
	if s := res.Sessions; s != nil {
		c.setupsSent, c.rejected = s.SetupsSent, s.Rejected
		if s.ControlPlane != nil {
			c.shed = s.ControlPlane.Shed
		}
	}
	var gen uint64
	for cl := packet.Class(0); cl < packet.NumClasses; cl++ {
		gen += res.PerClass[cl].GeneratedPackets
	}
	reg := res.PerClass[packet.Control].GeneratedPackets + res.PerClass[packet.Multimedia].GeneratedPackets
	if gen > 0 {
		c.regulatedShare = float64(reg) / float64(gen)
	}
	c.activeFlows = o.net.Admission().ActiveFlows()
	topo := res.Config.Topology
	for sw := 0; sw < topo.Switches(); sw++ {
		c.ports += topo.Radix(sw)
	}
	return c
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer measures the per-layer metrics in three phases sharing the
// budget: untraced operations (the timed run's counters and wall time),
// operations under a CPU profile (self time by layer), and isolated
// drives of each layer's public API at the operating point phase one
// measured.
func perLayer(r *runner, budget time.Duration) (map[string]metric, error) {
	start := time.Now()
	phase := func(share float64) bool {
		return time.Since(start) < time.Duration(share*float64(budget))
	}

	var c counts
	var untraced []float64 // wall seconds, indexed by sub-seed
	for len(untraced) == 0 || (len(untraced) < r.w.subSeeds && phase(0.35)) {
		o, err := r.op(len(untraced), nil)
		if err != nil {
			return nil, err
		}
		if len(untraced) == 0 {
			c = countsOf(o)
		}
		untraced = append(untraced, o.wall.Seconds())
	}

	// Profiled operations replay the untraced sub-seeds in order, so the
	// overhead compares runs of identical simulations.
	self := map[string]int64{}
	var overhead []float64
	for j := 0; j == 0 || phase(0.75); j++ {
		var buf bytes.Buffer
		k := j % r.w.subSeeds
		o, err := r.op(k, &buf)
		if err != nil {
			return nil, err
		}
		if k < len(untraced) {
			overhead = append(overhead, o.wall.Seconds()/untraced[k])
		}
		s, err := selfSamples(buf.Bytes())
		if err != nil {
			return nil, err
		}
		for fn, n := range s {
			self[fn] += n
		}
	}
	pct, samples := groupLayers(self)

	ms := map[string]metric{
		"sim.events":                     {float64(c.events), "count"},
		"sim.events_per_pkt":             {ratio(float64(c.events), float64(c.generated)), "events/pkt"},
		"sim.max_pending":                {float64(c.maxPending), "count"},
		"switchsim.xbar_transfers":       {float64(c.xbar), "count"},
		"switchsim.takeovers":            {float64(c.takeovers), "count"},
		"link.sends":                     {float64(c.linkSends), "count"},
		"hostif.pending_at_stop":         {float64(c.staged), "count"},
		"police.demoted":                 {float64(c.demoted), "count"},
		"police.forged":                  {float64(c.forged), "count"},
		"session.setups_sent":            {float64(c.setupsSent), "count"},
		"session.rejected":               {float64(c.rejected), "count"},
		"session.shed":                   {float64(c.shed), "count"},
		"session.accept_ratio":           {c.sim.SessionAcceptRatio, "ratio"},
		"session.setup_p99_us":           {c.sim.SessionSetupP99Us, "us"},
		"police.innocent_frame_miss_pct": {c.sim.InnocentFrameMissPct, "%"},
		"runtime.mallocs_per_event":      {ratio(float64(c.mallocs), float64(c.events)), "allocs/event"},
		"runtime.alloc_bytes_per_event":  {ratio(float64(c.allocBytes), float64(c.events)), "B/event"},
		"runtime.gc_cycles":              {float64(c.gcs), "count"},
		"profile.samples":                {float64(samples), "count"},
		"profile.other_pct":              {pct["other"], "%"},
		"profile.overhead_pct":           {100 * (median(overhead) - 1), "%"},
	}
	for _, l := range layers {
		ms[l+".cpu_pct"] = metric{pct[l], "%"}
	}
	for _, b := range runtimeBuckets {
		ms["runtime."+b+"_pct"] = metric{pct["runtime."+b], "%"}
	}

	drives, err := driveLayers(c, r.seed, budget-time.Since(start))
	if err != nil {
		return nil, err
	}
	for k, v := range drives {
		ms[k] = v
	}
	fmt.Fprintf(r.log, "# %s seed %d: %d untraced + %d profiled runs, %d profile samples; counts from sub-seed 0, digest %s\n",
		r.name, r.seed, len(untraced), r.attempted-len(untraced), samples, r.digests[0])
	return ms, nil
}

// driveLayers runs every isolated drive at the operating point c and
// attributes the run's CPU time to the layers: Σ(ns per call × calls)
// over the drives whose calls the run counts, against the run's CPU.
func driveLayers(c counts, seed uint64, remaining time.Duration) (map[string]metric, error) {
	const drives = 9
	per := remaining / drives
	if per < 150*time.Millisecond {
		per = 150 * time.Millisecond
	}
	cfg := c.cfg
	pendingPerEngine := c.maxPending / c.shards
	meanDelay := units.Time(ratio(float64(c.maxPending)*float64(c.horizon), float64(c.events)))
	// Packets per switch buffer: everything inside the fabric at the
	// horizon, spread over every (port, VC) buffer.
	occupancy := int(ratio(float64(c.inNetwork), float64(c.ports*packet.NumVCs)) + 0.5)

	engine := driveEngine(per, pendingPerEngine, meanDelay, seed)
	queue := map[pqueue.Discipline]float64{}
	for _, d := range []pqueue.Discipline{pqueue.TakeOver, pqueue.Heap, pqueue.FIFO} {
		queue[d] = driveQueue(per, d, occupancy, cfg.MTU, seed)
	}
	linkNs := driveLink(per, cfg.LinkBW, cfg.PropDelay, cfg.BufPerVC, cfg.MTU, seed)
	policeNs := drivePolice(per, cfg.LinkBW/16, cfg.PoliceBurst, cfg.MTU, seed)
	statsNs := driveStats(per, cfg.Topology.Hosts(), cfg.LinkBW, cfg.MTU, seed)
	admNs, err := driveAdmission(per, cfg.Topology, cfg.LinkBW, c.activeFlows, seed)
	if err != nil {
		return nil, err
	}
	lookahead := cfg.PropDelay
	parsimNs := driveParsim(per, lookahead)

	// Calls the run made into each driven layer. Each switch hop pops one
	// packet from an input buffer (crossbar transfer) and one from an
	// output buffer (link send); the drive's Push+Pop prices the pair.
	pqNs := (queue[cfg.Arch.Discipline(packet.VCRegulated)] + queue[cfg.Arch.Discipline(packet.VCBestEffort)]) / 2
	explained := float64(c.events)*engine + float64(c.xbar+c.linkSends)*pqNs +
		float64(c.delivered)*statsNs + float64(c.setupsSent)*admNs
	if cfg.Police {
		explained += float64(c.generated) * c.regulatedShare * policeNs
	}
	if c.shards > 1 {
		explained += float64(c.horizon/lookahead) * parsimNs
	}
	return map[string]metric{
		"sim.ns_per_event":          {engine, "ns"},
		"pqueue.takeover.ns_per_op": {queue[pqueue.TakeOver], "ns"},
		"pqueue.heap.ns_per_op":     {queue[pqueue.Heap], "ns"},
		"pqueue.fifo.ns_per_op":     {queue[pqueue.FIFO], "ns"},
		"link.ns_per_send":          {linkNs, "ns"},
		"police.ns_per_check":       {policeNs, "ns"},
		"stats.ns_per_delivery":     {statsNs, "ns"},
		"admission.ns_per_reserve":  {admNs, "ns"},
		"parsim.ns_per_window":      {parsimNs, "ns"},
		"attrib.unexplained_pct":    {100 * (1 - ratio(explained, float64(c.cpu.Nanoseconds()))), "%"},
	}, nil
}
