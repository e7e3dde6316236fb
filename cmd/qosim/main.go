// Command qosim runs one simulation of the deadline-based QoS network and
// prints per-class performance indices. Every optional part of the
// simulator switches on from its own flags, so one run can combine any of
// them:
//
//	faults     -flaps -derates -switch-faults -ber -rogues -forges (any non-zero)
//	sessions   -inter (dynamic session churn through the CAC)
//	tracing    -out (sampled packet-lifecycle trace artefacts in that directory)
//	probes     -probe (telemetry series; -metrics-addr serves them live)
//
// Runs with faults or sessions also check the delivery oracle, and every
// run audits packet conservation at the end: a violation exits non-zero,
// so the command doubles as a robustness check in CI and scripting.
//
// Examples:
//
//	qosim -arch advanced -load 1.0 -topo paper -measure 50ms
//	qosim -arch traditional -load 0.8 -topo small -track
//	qosim -topo small -load 0.8 -flaps 4 -derates 2 -ber 1e-6 -reliability -faulttrace
//	qosim -topo small -load 0.6 -inter 200us -delegate -local 0.7 -flash 6
//	qosim -topo small -load 0.8 -sample 0.05 -probe 100us -out /tmp/qosim_out
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/cli"
	"deadlineqos/internal/coflow"
	"deadlineqos/internal/faults"
	"deadlineqos/internal/metrics"
	"deadlineqos/internal/network"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/policy"
	"deadlineqos/internal/report"
	"deadlineqos/internal/session"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/traffic"
	"deadlineqos/internal/units"
)

func main() { cli.Main("qosim", newFlags(flag.CommandLine).run) }

// flags holds the parsed command line.
type flags struct {
	fs *flag.FlagSet

	arch, topo, policy, guard, videotrace, dump, json, csv, out, metricsAddr *string
	warmup, measure, skew, hold, inter, ctlService, flashAt, flashLen        *units.Time
	switchMTTF, switchMTTR, probe                                            *units.Time
	load, ber, rogueFactor, forgeScale, local, flash, sample                 *float64
	shards, flaps, derates, switchFaults, rogues, forges                     *int
	manager, ctlQueue, maxEvents                                             *int
	seed, faultSeed                                                          *uint64
	track, coflows, reliability, faultTrace, police, delegate                *bool
}

// newFlags registers the command's flags on fs.
func newFlags(fs *flag.FlagSet) *flags {
	ms, us := units.Millisecond, units.Microsecond
	dur := func(name string, def units.Time, usage string) *units.Time {
		return cli.DurationFlag(fs, name, def, usage)
	}
	return &flags{
		fs:         fs,
		arch:       fs.String("arch", "advanced", "switch architecture: traditional|traditional4|ideal|simple|advanced"),
		topo:       fs.String("topo", "paper", "topology: paper|small|clos:L,D,U|tree:K,N|single:N"),
		load:       fs.Float64("load", 1.0, "offered load per host as a fraction of link bandwidth"),
		shards:     cli.ShardsFlag(fs),
		seed:       fs.Uint64("seed", 1, "random seed (also drives packet sampling)"),
		warmup:     dur("warmup", 5*ms, "warm-up period excluded from measurement"),
		measure:    dur("measure", 50*ms, "measurement window"),
		track:      fs.Bool("track", false, "enable the order-error measurement oracle (slower)"),
		policy:     cli.PolicyFlag(fs),
		coflows:    cli.CoflowsFlag(fs),
		skew:       dur("skew", 0, "max per-node clock skew (e.g. 5us)"),
		videotrace: fs.String("videotrace", "", "MPEG frame-size trace file for video streams (see traffic.LoadFrameTrace)"),
		dump:       fs.String("dump", "", "write a per-packet event CSV (generated/injected/delivered) to this file"),
		json:       fs.String("json", "", "write a result snapshot (see cmd/qosreport) to this file"),

		faultSeed:    fs.Uint64("faultseed", 1, "fault-plan seed (independent of the traffic seed)"),
		flaps:        fs.Int("flaps", 0, "number of link down/up flap pairs to schedule"),
		derates:      fs.Int("derates", 0, "number of bandwidth derate/restore pairs to schedule"),
		switchFaults: fs.Int("switch-faults", 0, "number of whole-switch outage pairs to schedule"),
		switchMTTF:   dur("switch-mttf", 10*ms, "mean time between switch failures"),
		switchMTTR:   dur("switch-mttr", 500*us, "mean switch outage duration"),
		ber:          fs.Float64("ber", 0, "bit-error rate applied to every link"),
		reliability:  fs.Bool("reliability", false, "enable the end-to-end retransmission layer"),
		faultTrace:   fs.Bool("faulttrace", false, "print the executed fault trace"),
		rogues:       fs.Int("rogues", 0, "number of RogueFlow misbehaviour windows to schedule"),
		rogueFactor:  fs.Float64("rogue-factor", 4, "traffic multiplier of RogueFlow windows"),
		forges:       fs.Int("forges", 0, "number of DeadlineForge misbehaviour windows to schedule"),
		forgeScale:   fs.Float64("forge-scale", 0.5, "deadline-tightening factor of DeadlineForge windows"),
		police:       fs.Bool("police", false, "enforce per-flow token-bucket policing at NIC ingress"),
		guard:        fs.String("guard", "0", "regulated-VC occupancy guard bytes per switch output (0 = off)"),

		inter:      dur("inter", 0, "mean per-host session inter-arrival time (e.g. 200us; 0 = no sessions)"),
		hold:       dur("hold", 2*ms, "mean session hold time"),
		manager:    fs.Int("manager", 0, "host index running the CAC endpoint"),
		delegate:   fs.Bool("delegate", false, "run per-pod CAC delegates under the root (survivable control plane)"),
		local:      fs.Float64("local", 0, "fraction of session destinations kept intra-pod (needs -delegate)"),
		ctlService: dur("ctlservice", 0, "per-request CAC service time (e.g. 500ns; 0 = default)"),
		ctlQueue:   fs.Int("ctlqueue", 0, "CAC control-queue capacity before shedding (0 = default)"),
		flash:      fs.Float64("flash", 0, "flash-crowd arrival-rate multiplier (0 = off)"),
		flashAt:    dur("flashat", 2*ms, "flash-crowd window start"),
		flashLen:   dur("flashlen", 2*ms, "flash-crowd window length"),

		probe:       dur("probe", 0, "telemetry probe interval (e.g. 100us; 0 = off)"),
		csv:         fs.String("csv", "", "write the session time series as CSV to this file (needs -probe)"),
		sample:      fs.Float64("sample", 0.02, "fraction of packets to trace, in [0,1]"),
		maxEvents:   fs.Int("maxevents", trace.DefaultMaxEvents, "trace event capacity (0 = default)"),
		out:         fs.String("out", "", "trace the run and write its artefacts to this directory (empty = no tracing)"),
		metricsAddr: cli.MetricsAddrFlag(fs),
	}
}

// requires lists flags that act only when another flag is given too.
var requires = []struct{ flag, needs string }{
	{"hold", "inter"}, {"manager", "inter"}, {"delegate", "inter"},
	{"ctlservice", "inter"}, {"ctlqueue", "inter"}, {"flash", "inter"},
	{"flashat", "flash"}, {"flashlen", "flash"}, {"local", "delegate"},
	{"switch-mttf", "switch-faults"}, {"switch-mttr", "switch-faults"},
	{"rogue-factor", "rogues"}, {"forge-scale", "forges"},
	{"sample", "out"}, {"maxevents", "out"},
}

// run simulates the configured network and prints its report.
func (f *flags) run() (err error) {
	cfg, err := f.config()
	if err != nil {
		return err
	}
	if *f.metricsAddr != "" {
		srv, err := cli.StartMetrics(*f.metricsAddr, cfg.Metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
	}
	outs, err := f.create(&cfg)
	defer func() {
		for _, o := range outs {
			if cerr := o.f.Close(); err == nil {
				err = cerr
			}
		}
	}()
	if err != nil {
		return err
	}

	fmt.Printf("topology=%s arch=%s policy=%s load=%.0f%% seed=%d window=[%v, %v]\n",
		cfg.Topology.Name(), cfg.Arch, cfg.Policy.Name(), 100*cfg.Load, cfg.Seed, cfg.WarmUp, cfg.WarmUp+cfg.Measure)
	if plan := cfg.Faults; plan != nil {
		fmt.Printf("plan: %d events, BER %.2g on all links, reliability=%v\n",
			len(plan.Events), plan.DefaultBER, cfg.Reliability.Enabled)
	}
	if scfg := cfg.Sessions; scfg != nil {
		fmt.Printf("sessions: inter-arrival=%v hold=%v manager=%d flash=%.1fx derates=%d delegate=%v\n",
			scfg.InterArrival, scfg.HoldMean, *f.manager, *f.flash, *f.derates, *f.delegate)
	}

	res, err := network.Run(cfg)
	if err != nil {
		return err
	}
	for _, o := range outs {
		if err := o.write(o.f, res); err != nil {
			return fmt.Errorf("writing %s: %w", o.f.Name(), err)
		}
	}
	f.print(res)
	if err := res.Conservation.Check(); err != nil {
		return err
	}
	fmt.Println("conservation: OK")
	return nil
}

// config turns the parsed flags into a network.Config. Each optional
// section switches on from its own flags: the fault plan when any fault
// count or the bit-error rate is non-zero, sessions with -inter, the
// tracer with -out and the metrics registry with -metrics-addr. Runs with
// faults or sessions also check the delivery oracle.
func (f *flags) config() (network.Config, error) {
	cfg := network.DefaultConfig()
	set := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	for _, r := range requires {
		if set[r.flag] && !set[r.needs] {
			return cfg, fmt.Errorf("-%s needs -%s", r.flag, r.needs)
		}
	}
	var err error
	if cfg.Arch, err = arch.Parse(*f.arch); err != nil {
		return cfg, err
	}
	if cfg.Topology, err = cli.ParseTopology(*f.topo); err != nil {
		return cfg, err
	}
	if cfg.Policy, err = policy.Parse(*f.policy); err != nil {
		return cfg, err
	}
	topo := cfg.Topology
	cfg.Load, cfg.Seed, cfg.Shards = *f.load, *f.seed, *f.shards
	cfg.WarmUp, cfg.Measure, cfg.ClockSkewMax = *f.warmup, *f.measure, *f.skew
	cfg.TrackOrderErrors = *f.track
	if *f.coflows {
		cfg.Coflows = &coflow.Config{StartAt: cfg.WarmUp}
	}
	if *f.videotrace != "" {
		data, err := os.ReadFile(*f.videotrace)
		if err == nil {
			cfg.VideoTraceFrames, err = traffic.LoadFrameTrace(bytes.NewReader(data))
		}
		if err != nil {
			return cfg, err
		}
	}
	if topo.Hosts() < 32 {
		// Small networks cannot spread flows over the default fan-out.
		cfg.ControlDests = min(cfg.ControlDests, topo.Hosts()-1)
		cfg.BEDests = min(cfg.BEDests, topo.Hosts()-1)
	}
	cfg.Police = *f.police
	if cfg.GuardBytes, err = cli.ParseSize(*f.guard); err != nil {
		return cfg, fmt.Errorf("-guard: %w", err)
	}
	cfg.Reliability.Enabled = *f.reliability
	cfg.Faults = f.faultPlan(topo, cfg.WarmUp+cfg.Measure)
	if *f.inter > 0 {
		s := &session.Config{InterArrival: *f.inter, HoldMean: *f.hold, Manager: *f.manager,
			Delegation: *f.delegate, LocalFrac: *f.local, CtlService: *f.ctlService, CtlQueueCap: *f.ctlQueue}
		if *f.flash > 0 {
			s.FlashFactor, s.FlashAt, s.FlashLen = *f.flash, *f.flashAt, *f.flashLen
		}
		cfg.Sessions = s
	}
	cfg.CheckInvariants = cfg.Faults != nil || cfg.Sessions != nil

	cfg.ProbeInterval = *f.probe
	if *f.metricsAddr != "" {
		cfg.Metrics = metrics.NewRegistry()
		if cfg.ProbeInterval <= 0 {
			// The metrics plane publishes on the probe cadence; give the
			// scrape server something live to show.
			cfg.ProbeInterval = 100 * units.Microsecond
		}
	}
	if *f.csv != "" && cfg.ProbeInterval <= 0 {
		return cfg, fmt.Errorf("-csv needs -probe to record the session series")
	}
	if *f.out != "" {
		if cfg.Tracer, err = trace.New(trace.Config{SampleRate: *f.sample, Seed: cfg.Seed, MaxEvents: *f.maxEvents}); err != nil {
			return cfg, err
		}
		// The take-over and order-error observers only fire on tracked
		// buffers; a tracing run wants them.
		cfg.TrackOrderErrors = true
	}
	return cfg, nil
}

// faultPlan draws the random fault plan, or returns nil when no fault
// flag is non-zero. Link flaps last horizon/200..horizon/25 (the bounds of
// experiments.ChaosPlan); a plan without flaps keeps RandomPlan's default
// derate window, as experiments.ChurnPlan does.
func (f *flags) faultPlan(topo topology.Topology, horizon units.Time) *faults.Plan {
	if *f.flaps == 0 && *f.derates == 0 && *f.switchFaults == 0 && *f.ber == 0 &&
		*f.rogues == 0 && *f.forges == 0 {
		return nil
	}
	rcfg := faults.RandomConfig{
		Flaps:       *f.flaps,
		Derates:     *f.derates,
		MinScale:    0.3,
		Hosts:       topo.Hosts(),
		Rogues:      *f.rogues,
		RogueFactor: *f.rogueFactor,
		Forges:      *f.forges,
		ForgeScale:  *f.forgeScale,
	}
	if *f.flaps > 0 {
		rcfg.MinDown, rcfg.MaxDown = horizon/200, horizon/25
	}
	if *f.switchFaults > 0 {
		rcfg.Switches, rcfg.SwitchFaults = topo.Switches(), *f.switchFaults
		rcfg.SwitchMTTF, rcfg.SwitchMTTR = *f.switchMTTF, *f.switchMTTR
	}
	plan := faults.RandomPlan(*f.faultSeed, faults.WiredLinks(topo), horizon, rcfg)
	plan.DefaultBER = *f.ber
	return plan
}

// output is a file created before the run and written from its results.
type output struct {
	path  string
	write func(w io.Writer, res *network.Results) error
	f     *os.File
}

// create opens every output file before the simulation starts, so a bad
// path fails the command before it spends the run: -dump (installing the
// per-packet callbacks into cfg), -json, -csv and the -out artefacts. On
// error it returns the files it did open, for the caller to close.
func (f *flags) create(cfg *network.Config) ([]output, error) {
	var outs []output
	var dump *bufio.Writer // buffers the per-packet callbacks; set once the file exists
	if *f.dump != "" {
		outs = append(outs, output{path: *f.dump, write: func(io.Writer, *network.Results) error { return dump.Flush() }})
	}
	if *f.json != "" {
		outs = append(outs, output{path: *f.json, write: func(w io.Writer, res *network.Results) error {
			c := res.Config
			label := fmt.Sprintf("%s arch=%s load=%.2f seed=%d", c.Topology.Name(), c.Arch.Flag(), c.Load, c.Seed)
			return res.Snapshot(label).WriteJSON(w)
		}})
	}
	if *f.csv != "" {
		outs = append(outs, output{path: *f.csv, write: func(w io.Writer, res *network.Results) error {
			return res.Telemetry.WriteSessionsCSV(w)
		}})
	}
	if tr := cfg.Tracer; tr != nil {
		if err := os.MkdirAll(*f.out, 0o755); err != nil {
			return nil, err
		}
		artefact := func(name string, write func(io.Writer, *network.Results) error) {
			outs = append(outs, output{path: filepath.Join(*f.out, name), write: write})
		}
		artefact("trace.jsonl", func(w io.Writer, _ *network.Results) error { return tr.WriteJSONL(w) })
		artefact("trace_chrome.json", func(w io.Writer, _ *network.Results) error { return tr.WriteChromeTrace(w) })
		if cfg.ProbeInterval > 0 {
			artefact("telemetry.csv", func(w io.Writer, res *network.Results) error { return res.Telemetry.WriteCSV(w) })
			artefact("telemetry.json", func(w io.Writer, res *network.Results) error { return res.Telemetry.WriteJSON(w) })
		}
	}
	for i := range outs {
		var err error
		if outs[i].f, err = os.Create(outs[i].path); err != nil {
			return outs[:i], err
		}
	}
	if *f.dump != "" {
		dump = bufio.NewWriter(outs[0].f)
		fmt.Fprintln(dump, "event,time_ns,id,flow,class,src,dst,size,seq,deadline_ns,frame")
		line := func(ev string, p *packet.Packet, at units.Time) {
			fmt.Fprintf(dump, "%s,%d,%d,%d,%s,%d,%d,%d,%d,%d,%d\n",
				ev, int64(at), p.ID, p.Flow, p.Class, p.Src, p.Dst,
				int64(p.Size), p.Seq, int64(p.Deadline), p.FrameID)
		}
		cfg.Trace = network.Trace{
			Generated: func(p *packet.Packet) { line("gen", p, p.CreatedAt) },
			Injected:  func(p *packet.Packet, at units.Time) { line("inj", p, at) },
			Delivered: func(p *packet.Packet, at units.Time) { line("dlv", p, at) },
		}
	}
	return outs, nil
}

// print writes the per-class table, then one section per optional part
// of the simulator the run switched on.
func (f *flags) print(res *network.Results) {
	t := report.NewTable("per-class results",
		"class", "generated", "delivered", "throughput", "avg lat", "p99 lat", "max lat", "jitter", "frame lat")
	for c := packet.Class(0); c < packet.NumClasses; c++ {
		cs := &res.PerClass[c]
		frame := "-"
		if cs.FrameLatency.Count() > 0 {
			frame = units.Time(cs.FrameLatency.Mean()).String()
		}
		t.Add(c.String(),
			fmt.Sprintf("%d", cs.GeneratedPackets),
			fmt.Sprintf("%d", cs.DeliveredPackets),
			fmt.Sprintf("%.1f%%", 100*res.Throughput(c)),
			units.Time(cs.PacketLatency.Mean()).String(),
			cs.LatencyHist.Quantile(0.99).String(),
			units.Time(cs.PacketLatency.Max()).String(),
			units.Time(cs.Jitter.Mean()).String(),
			frame)
	}
	fmt.Println(t)
	fmt.Printf("events=%d xbar=%d sends=%d pending=%d videoStreams/host=%d\n",
		res.SimEvents, res.XbarTransfers, res.LinkSends, res.PendingAtHorizon, res.VideoStreamsPerHost)
	if res.Config.TrackOrderErrors {
		fmt.Printf("orderErrors=%d takeOvers=%d\n", res.OrderErrors, res.TakeOvers)
	}
	if res.Config.Faults != nil {
		f.printFaults(res)
	}
	if res.Availability != nil {
		fmt.Printf("availability: %v\n", res.Availability)
	}
	if res.Police != nil {
		fmt.Printf("policing: %v\n", res.Police)
	}
	if res.Sessions != nil {
		f.printSessions(res)
	}
	if c := res.Coflows; c != nil {
		completion := "incomplete"
		if c.AllDone {
			completion = c.CompletionTime.String()
		}
		fmt.Printf("coflows=%d admitted=%d rejected=%d completed=%d deadlineMet=%d completion=%s\n",
			c.Coflows, c.Admitted, c.Rejected, c.Completed, c.DeadlineMet, completion)
	}
	if res.Conservation.EvictedAtNIC > 0 {
		fmt.Printf("policyEvictions=%d weightedGoodput=%.3f\n",
			res.Conservation.EvictedAtNIC, res.WeightedGoodput())
	}
	if res.Config.Tracer != nil {
		f.printTrace(res)
	}
}

// printFaults reports the fault plan's execution and the recovery it
// forced.
func (f *flags) printFaults(res *network.Results) {
	if *f.faultTrace {
		fmt.Println("fault trace:")
		for _, e := range res.FaultTrace {
			fmt.Printf("  %v\n", e)
		}
	}

	t := report.NewTable("per-class results under faults",
		"class", "generated", "delivered", "corrupt", "lost", "retx", "demoted",
		"avg lat", "p99 lat", "frame p99")
	for c := packet.Class(0); c < packet.NumClasses; c++ {
		cs := &res.PerClass[c]
		frame := "-"
		if cs.FrameLatency.Count() > 0 {
			frame = cs.FrameHist.Quantile(0.99).String()
		}
		t.Add(c.String(),
			fmt.Sprintf("%d", cs.GeneratedPackets),
			fmt.Sprintf("%d", cs.DeliveredPackets),
			fmt.Sprintf("%d", cs.CorruptedPackets),
			fmt.Sprintf("%d", cs.LostPackets),
			fmt.Sprintf("%d", cs.RetransmittedPackets),
			fmt.Sprintf("%d", cs.DemotedPackets),
			units.Time(cs.PacketLatency.Mean()).String(),
			cs.LatencyHist.Quantile(0.99).String(),
			frame)
	}
	fmt.Println(t)

	rel := res.Reliability
	fmt.Printf("faults: events=%d lost=%d corruptInFlight=%d\n",
		res.FaultEvents, res.LostOnLink, res.CorruptedInFlight)
	fmt.Printf("recovery: acked=%d timeouts=%d naks=%d retx=%d demoted=%d dups=%d outstandingAtStop=%d\n",
		rel.Acked, rel.Timeouts, rel.Naks, rel.Retransmitted, rel.Demoted, rel.RxDup, res.OutstandingAtStop)
	fmt.Printf("conservation: %v\n", res.Conservation)
}

// printSessions reports the session lifecycle, admission and control
// plane.
func (f *flags) printSessions(res *network.Results) {
	s := res.Sessions
	t := report.NewTable("session lifecycle",
		"started", "granted", "rejected", "retries", "timeouts", "downgraded",
		"finished", "released", "active at stop")
	t.Add(fmt.Sprintf("%d", s.Started), fmt.Sprintf("%d", s.Granted),
		fmt.Sprintf("%d", s.Rejected), fmt.Sprintf("%d", s.Retries),
		fmt.Sprintf("%d", s.Timeouts), fmt.Sprintf("%d", s.Downgraded),
		fmt.Sprintf("%d", s.Finished), fmt.Sprintf("%d", s.Released),
		fmt.Sprintf("%d", s.ActiveAtStop))
	fmt.Println(t)

	fmt.Printf("admission: accept ratio %.3f, setup latency mean %v p50 %v p99 %v (%d samples)\n",
		s.AcceptRatio, units.Time(s.SetupMeanNs), s.SetupP50, s.SetupP99, s.SetupCount)
	fmt.Printf("utilisation: reserved %.1f%% achieved %.1f%% of injection capacity\n",
		100*s.ReservedUtil, 100*s.AchievedUtil)
	fmt.Printf("revocation: revoked=%d rerouted=%d downgraded=%d stale teardowns=%d\n",
		s.Revoked, s.Rerouted, s.RevokeDowngrades, s.StaleTears)
	if cp := res.ControlPlane; cp != nil && cp.Delegated {
		fmt.Printf("control plane: %d pods, %d delegates, local grants %d, escalated %d, shed %d\n",
			cp.Pods, cp.Delegates, cp.LocalGrants, cp.Escalated, cp.Shed)
		fmt.Printf("leases: granted=%d requested=%d denied=%d returned=%d renewals=%d\n",
			cp.LeaseGrants, cp.LeaseRequests, cp.LeaseDenied, cp.LeaseReturns, cp.LeaseRenewals)
		fmt.Printf("failover: promotions=%d reclaims=%d replays=%d breaker opens=%d breaker rejects=%d\n",
			cp.Promotions, cp.Reclaims, cp.FailoverReplays, cp.BreakerOpens, cp.BreakerRejects)
		if cp.FailoverCount > 0 {
			fmt.Printf("failover TTR: p50 %v p99 %v (%d failovers)\n",
				cp.FailoverP50, cp.FailoverP99, cp.FailoverCount)
		}
	}
	fmt.Printf("traffic: data %d pkts (%v), signalling %d pkts (%v)\n",
		s.DataPackets, s.DataBytes, s.SigPackets, s.SigBytes)
	ctrl := &res.PerClass[packet.Control]
	fmt.Printf("control class: avg %v p99 %v\n",
		units.Time(ctrl.PacketLatency.Mean()), ctrl.LatencyHist.Quantile(0.99))
	if *f.csv != "" {
		fmt.Printf("session series: %d samples -> %s\n", len(res.Telemetry.Sessions), *f.csv)
	}
}

// printTrace reports the sampled packet trace: the per-class summary with
// deadline-slack ladders, the per-hop dequeue slack and the engine
// profile.
func (f *flags) printTrace(res *network.Results) {
	tr := res.Config.Tracer
	fmt.Println(report.PerClassTable("per-class results", res.Collector))

	if hs := tr.HopSlack(); len(hs) > 0 {
		t := report.NewTable("dequeue slack per hop (sampled packets)",
			"hop", "dequeues", "slack avg", "slack min", "slack max")
		for _, h := range hs {
			t.Add(fmt.Sprintf("%d", h.Hop), fmt.Sprintf("%d", h.Count),
				units.Time(h.MeanNs).String(), units.Time(h.MinNs).String(),
				units.Time(h.MaxNs).String())
		}
		fmt.Println(t)
	}

	dropNote := ""
	if d := tr.Dropped(); d > 0 {
		dropNote = fmt.Sprintf(" (%d dropped at the %d-event cap — raise -maxevents or lower -sample)", d, *f.maxEvents)
	}
	fmt.Printf("trace: %d sampled packets, %d events%s\n", tr.SampledPackets(), len(tr.Events()), dropNote)
	if res.Telemetry != nil {
		fmt.Printf("telemetry: %d port samples, %d engine samples every %v\n",
			len(res.Telemetry.Ports), len(res.Telemetry.Engine), res.Telemetry.Interval)
	}
	fmt.Printf("profile: %v\n", &res.Perf)
	fmt.Printf("artefacts in %s: trace.jsonl trace_chrome.json telemetry.csv telemetry.json\n", *f.out)
}
