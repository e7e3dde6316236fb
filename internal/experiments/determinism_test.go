package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/coflow"
	"deadlineqos/internal/faults"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/network"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/policy"
	"deadlineqos/internal/session"
	"deadlineqos/internal/soak"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// The sharded-execution correctness bar (DESIGN.md §9): for every
// experiment scenario, a run split across N engine shards must produce
// byte-identical statistics snapshots, trace output, telemetry,
// conservation accounting and fault traces to the sequential engine with
// the same config and seed. These tests pin that guarantee across every
// feature that records state at event time, and pin the sequential
// fingerprint itself against the committed digests (golden_test.go).

// detScenario is one config variation to cross-check.
type detScenario struct {
	name string
	cfg  func() network.Config
}

// detBase is the shared scenario base: the quick 16-host network with a
// window short enough to run each scenario at three shard counts.
func detBase() network.Config {
	cfg := network.SmallConfig()
	cfg.WarmUp = 500 * units.Microsecond
	cfg.Measure = 3 * units.Millisecond
	if raceEnabled {
		// The race detector costs ~10-20x per run; byte-equality over a
		// shorter window still exercises every merge path.
		cfg.WarmUp = 200 * units.Microsecond
		cfg.Measure = 800 * units.Microsecond
	}
	cfg.Load = 0.8
	cfg.CheckInvariants = true
	return cfg
}

// detScenarios covers every recording subsystem: plain stats, order
// oracles, clock skew, hotspots, degraded links, fault injection with
// end-to-end reliability, packet-lifecycle tracing, telemetry probes, and
// trace-driven video across the switch architectures.
func detScenarios() []detScenario {
	return []detScenario{
		{"baseline-advanced", detBase},
		{"traditional-vctable", func() network.Config {
			cfg := detBase()
			cfg.Arch = arch.Traditional2VC
			cfg.Load = 1.0
			cfg.VCArbitrationTable = []packet.VC{packet.VCRegulated, packet.VCBestEffort}
			return cfg
		}},
		{"ideal-skew", func() network.Config {
			cfg := detBase()
			cfg.Arch = arch.Ideal
			cfg.ClockSkewMax = 5 * units.Microsecond
			return cfg
		}},
		{"simple-hotspot", func() network.Config {
			cfg := detBase()
			cfg.Arch = arch.Simple2VC
			cfg.HotspotFraction = 0.5
			cfg.HotspotHost = 0
			return cfg
		}},
		{"order-errors-unshaped", func() network.Config {
			cfg := detBase()
			cfg.TrackOrderErrors = true
			cfg.EligibleLead = 0
			return cfg
		}},
		{"degraded-links", func() network.Config {
			cfg := detBase()
			cfg.DegradedLinks = []network.DegradedLink{
				{Switch: 0, Port: 0, Scale: 0.5},
				{Switch: 4, Port: 1, Scale: 0.7},
			}
			return cfg
		}},
		{"faults-reliability", func() network.Config {
			cfg := detBase()
			cfg.Faults = ChaosPlan(cfg.Seed+7, cfg.Topology, cfg.WarmUp+cfg.Measure)
			cfg.Reliability = hostif.Reliability{Enabled: true}
			return cfg
		}},
		{"telemetry-probes", func() network.Config {
			cfg := detBase()
			cfg.ProbeInterval = 100 * units.Microsecond
			return cfg
		}},
		{"video-trace", func() network.Config {
			cfg := detBase()
			cfg.VideoTraceFrames = []units.Size{
				24 * units.Kilobyte, 8 * units.Kilobyte, 6 * units.Kilobyte,
				10 * units.Kilobyte, 7 * units.Kilobyte, 12 * units.Kilobyte,
			}
			return cfg
		}},
		{"churn", func() network.Config {
			// Saturating session churn at full load: the CAC rejects, clients
			// retry and downgrade, and every decision (and its in-band round
			// trip) must land identically at any shard count.
			cfg := detBase()
			cfg.Load = 1.0
			cfg.Sessions = ChurnSessions(100 * units.Microsecond)
			return cfg
		}},
		{"churn-faults-probes", func() network.Config {
			// Churn with runtime derates (revocation path) and the session
			// telemetry series on.
			cfg := detBase()
			cfg.Sessions = ChurnSessions(60 * units.Microsecond)
			cfg.Faults = ChurnPlan(cfg.Seed+11, cfg.Topology, cfg.WarmUp+cfg.Measure)
			cfg.ProbeInterval = 100 * units.Microsecond
			return cfg
		}},
		{"switch-failure", func() network.Config {
			// Whole-switch outages with route repair, session
			// reroute-or-revoke, and the reliability layer recovering the
			// packets the dead switch discarded.
			cfg := detBase()
			horizon := cfg.WarmUp + cfg.Measure
			cfg.Sessions = ChurnSessions(300 * units.Microsecond)
			cfg.Reliability = hostif.Reliability{Enabled: true}
			cfg.Faults = SwitchFaultPlan(cfg.Seed+13, cfg.Topology, horizon, horizon/2)
			return cfg
		}},
		{"delegated-churn", func() network.Config {
			// Delegated control plane under a flash crowd with bounded
			// control queues: local grants, escalations, lease growth and
			// returns, shedding, and the per-entity session telemetry must
			// all land identically at any shard count.
			cfg := detBase()
			s := ChurnSessions(80 * units.Microsecond)
			s.Delegation = true
			s.LocalFrac = 0.5
			s.CtlService = 300 * units.Nanosecond
			s.CtlQueueCap = 8
			s.FlashFactor = 6
			s.FlashAt = cfg.WarmUp
			s.FlashLen = cfg.Measure / 4
			cfg.Sessions = s
			cfg.ProbeInterval = 100 * units.Microsecond
			return cfg
		}},
		{"cac-outage", func() network.Config {
			// CAC-host outages during delegated churn: one pod's primary
			// dies (standby promotion, lease reconciliation, retargets) and
			// another pod loses both delegates (lease reclaim, root
			// fallback). The failover state machine runs on in-band
			// messages and static fault hooks only, so every promotion,
			// replayed setup, and TTR sample must be shard-invariant.
			cfg := detBase()
			s := ChurnSessions(120 * units.Microsecond)
			s.Delegation = true
			s.LocalFrac = 0.7
			cfg.Sessions = s
			cfg.ProbeInterval = 100 * units.Microsecond
			horizon := cfg.WarmUp + cfg.Measure
			pods := session.PodPlan(cfg.Topology, s.WithDefaults().Manager)
			plan := &faults.Plan{}
			kill := func(at units.Time, host int) {
				sw, port := cfg.Topology.HostPort(host)
				plan.Events = append(plan.Events, faults.Event{
					At: at, Link: faults.LinkID{Switch: sw, Port: port}, Kind: faults.PortDown})
			}
			kill(horizon/3, pods[0].Primary)
			kill(horizon/3, pods[1].Primary)
			kill(horizon/3+50*units.Microsecond, pods[1].Standby)
			cfg.Faults = plan
			return cfg
		}},
		{"policy-coflow-default", func() network.Config {
			// The ring coflow workload under the default policy: σ-pass
			// admission, CAC reservations, frontier-gated submissions and
			// the per-round outcome fold must all land identically at any
			// shard count.
			cfg := detBase()
			cfg.Coflows = &coflow.Config{StartAt: cfg.WarmUp, Rounds: 4, Chunk: 4 * units.Kilobyte}
			return cfg
		}},
		{"policy-coflow-edf", func() network.Config {
			// Same workload under the coflow-deadline policy: admitted
			// rounds carry absolute collective deadlines through the fabric.
			cfg := detBase()
			cfg.Policy = policy.CoflowEDF()
			cfg.Coflows = &coflow.Config{StartAt: cfg.WarmUp, Rounds: 4, Chunk: 4 * units.Kilobyte}
			return cfg
		}},
		{"policy-value-drop", func() network.Config {
			// Bounded value-aware injection queues under a best-effort
			// hotspot: every eviction decision (victim choice, counters,
			// conservation terms) must be shard-invariant.
			cfg := detBase()
			cfg.Load = 1.0
			cfg.ClassShare = [packet.NumClasses]float64{0.1, 0.1, 0.6, 0.2}
			cfg.HotspotFraction = 0.7
			cfg.HotspotHost = 0
			cfg.Policy = policy.ValueDrop(32*units.Kilobyte, false)
			return cfg
		}},
		{"rogue-unpoliced", func() network.Config {
			// Odd hosts babble at 4x their reservation with no policer in
			// the way: the excess traffic, the innocent/rogue frame split
			// and the fault trace must be shard-invariant.
			cfg := detBase()
			cfg.Load = 1.0
			horizon := cfg.WarmUp + cfg.Measure
			cfg.Faults = RoguePlan(cfg.Topology.Hosts(), horizon/8, horizon, 4)
			return cfg
		}},
		{"rogue-policed-guarded", func() network.Config {
			// The same rogue storm against the full protection plane: NIC
			// policing (every demotion decision and its trace event) plus
			// the regulated-VC occupancy guard's per-input accounting.
			cfg := detBase()
			cfg.Load = 1.0
			horizon := cfg.WarmUp + cfg.Measure
			cfg.Faults = RoguePlan(cfg.Topology.Hosts(), horizon/8, horizon, 4)
			cfg.Police = true
			cfg.GuardBytes = 8 * units.Kilobyte
			return cfg
		}},
		{"forge-policed", func() network.Config {
			// Deadline forgery against the policer's rate-envelope test,
			// with session churn granting policed dynamic flows on top.
			cfg := detBase()
			horizon := cfg.WarmUp + cfg.Measure
			cfg.Faults = ForgePlan(cfg.Topology.Hosts(), horizon/8, horizon, 0.25)
			cfg.Police = true
			cfg.Sessions = ChurnSessions(200 * units.Microsecond)
			return cfg
		}},
		{"gray-drain", func() network.Config {
			// A slow-drain link under the gray-failure detector: the
			// detection times, proactive reroutes and session
			// revalidations all derive from build-time replay and must be
			// byte-identical at any shard count.
			cfg := detBase()
			horizon := cfg.WarmUp + cfg.Measure
			ids := transitLinkIDs(cfg.Topology)
			cfg.Faults = GrayPlan(ids, horizon/6, horizon, 0.3)
			cfg.Gray = &network.GrayConfig{Persistence: horizon / 8}
			cfg.Sessions = ChurnSessions(200 * units.Microsecond)
			return cfg
		}},
		{"soak-epoch", func() network.Config {
			// Exactly what the soak harness runs in one epoch — the full
			// fault mix plus churn — pinned here so the seed printed by a
			// failing soak replays byte-identically at any shard count.
			base := detBase()
			return soak.EpochConfig(soak.Options{
				Seed: 5, WarmUp: base.WarmUp, Measure: base.Measure,
				SwitchFaults: 2, Flaps: 3, Derates: 2,
			}, 0)
		}},
		{"soak-epoch-delegated", func() network.Config {
			// An odd soak epoch: the delegated control plane under the same
			// random derates and switch outages, so every delegate grant,
			// revocation and repair — and the per-entity session telemetry
			// rows — is pinned.
			base := detBase()
			cfg := soak.EpochConfig(soak.Options{
				Seed: 5, WarmUp: base.WarmUp, Measure: base.Measure,
				SwitchFaults: 2, Flaps: 3, Derates: 2,
			}, 1)
			cfg.ProbeInterval = 100 * units.Microsecond
			return cfg
		}},
	}
}

// detChecks assert on a scenario's sequential results that it reaches
// the code paths it exists to pin.
var detChecks = map[string]func(*testing.T, *network.Results){
	"soak-epoch-delegated": checkDelegatePaths,
}

// checkDelegatePaths asserts a delegated run grants locally, revokes
// sessions stranded by switch faults, and has at least one pod delegate
// revoke a session of its own.
func checkDelegatePaths(t *testing.T, res *network.Results) {
	t.Helper()
	if res.ControlPlane == nil || res.ControlPlane.LocalGrants == 0 {
		t.Errorf("no local grants: control plane %+v", res.ControlPlane)
	}
	if res.Sessions == nil || res.Sessions.SwitchRevoked == 0 {
		t.Errorf("no switch-fault revocations: sessions %+v", res.Sessions)
	}
	if res.Telemetry != nil {
		for _, s := range res.Telemetry.Sessions {
			if s.Pod >= 0 && s.Revoked > 0 {
				return
			}
		}
	}
	t.Error("no delegate telemetry row with Revoked > 0")
}

// runFingerprint runs cfg at the given shard count (building a fresh
// tracer when requested) and renders every determinism-guaranteed output
// as one labelled byte blob.
func runFingerprint(t *testing.T, cfg network.Config, shards int, withTracer bool) ([]byte, *network.Results) {
	t.Helper()
	cfg.Shards = shards
	var tr *trace.Tracer
	if withTracer {
		var err error
		// The sample cap must not be hit: per-shard tracers enforce it
		// independently, so a capped run loses the equality guarantee.
		tr, err = trace.New(trace.Config{SampleRate: 0.05, Seed: cfg.Seed, MaxEvents: 500_000})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Tracer = tr
	}
	res, err := network.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	section := func(name string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "== %s ==\n%s\n", name, b)
	}
	section("snapshot", res.Snapshot("det"))
	section("conservation", res.Conservation)
	section("fault-trace", res.FaultTrace)
	section("reliability", res.Reliability)
	section("counters", []uint64{
		res.OrderErrors, res.TakeOvers, res.XbarTransfers, res.LinkSends,
		uint64(res.PendingAtHorizon), res.LostOnLink, res.CorruptedInFlight,
		res.FaultEvents, uint64(res.OutstandingAtStop),
	})
	section("sessions", res.Sessions)
	section("availability", res.Availability)
	section("policy", res.Policy)
	section("coflows", res.Coflows)
	section("police", res.Police)
	section("gray", res.Gray)
	if tr != nil {
		buf.WriteString("== trace-jsonl ==\n")
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if tr.Dropped() > 0 {
			t.Fatalf("tracer hit its event cap (%d dropped); raise MaxEvents", tr.Dropped())
		}
	}
	if res.Telemetry != nil {
		buf.WriteString("== telemetry-ports ==\n")
		if err := res.Telemetry.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("== telemetry-sessions ==\n")
		if err := res.Telemetry.WriteSessionsCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), res
}

// diffLine locates the first differing line between two fingerprints so a
// failure names the section instead of dumping megabytes.
func diffLine(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	section := "?"
	for i := 0; i < len(al) && i < len(bl); i++ {
		if bytes.HasPrefix(al[i], []byte("== ")) {
			section = string(al[i])
		}
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("section %s line %d:\n  seq: %.200s\n  par: %.200s", section, i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ (%d vs %d lines) after section %s", len(al), len(bl), section)
}

// detShardCounts is the sharded side of the cross-check. Under the race
// detector only the 2-shard run is compared (the 4-shard schedule adds
// interleavings, not merge paths, and race runs cost 10-20x); the plain
// build compares both.
func detShardCounts() []int {
	if raceEnabled {
		return []int{2}
	}
	return []int{2, 4}
}

// TestShardDeterminism is the cross-check: every scenario at Shards=2 and
// Shards=4 against the sequential run.
func TestShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run cross-check")
	}
	for _, sc := range detScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			ref, res := runFingerprint(t, sc.cfg(), 1, false)
			checkGolden(t, sc.name, ref)
			if check := detChecks[sc.name]; check != nil {
				check(t, res)
			}
			for _, shards := range detShardCounts() {
				got, _ := runFingerprint(t, sc.cfg(), shards, false)
				if !bytes.Equal(ref, got) {
					t.Errorf("shards=%d diverges from sequential: %s", shards, diffLine(ref, got))
				}
			}
		})
	}
}

// TestShardDeterminismTraced runs the tracing cross-check separately (the
// tracer makes runs slower): full JSONL trace bytes must match, alongside
// everything else, with faults and order tracking on.
func TestShardDeterminismTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run cross-check")
	}
	cfgFn := func() network.Config {
		cfg := detBase()
		horizon := cfg.WarmUp + cfg.Measure
		cfg.TrackOrderErrors = true
		cfg.Faults = ChaosPlan(cfg.Seed+7, cfg.Topology, horizon)
		// A spine outage on top of the link chaos: traced runs must also
		// agree on every drop inside the dead switch and every repair.
		cfg.Faults.Events = append(cfg.Faults.Events,
			faults.Event{At: horizon / 3, Link: faults.SwitchID(5), Kind: faults.SwitchDown},
			faults.Event{At: 2 * horizon / 3, Link: faults.SwitchID(5), Kind: faults.SwitchUp})
		cfg.Reliability = hostif.Reliability{Enabled: true}
		cfg.ProbeInterval = 200 * units.Microsecond
		cfg.Sessions = ChurnSessions(150 * units.Microsecond)
		return cfg
	}
	ref, _ := runFingerprint(t, cfgFn(), 1, true)
	checkGolden(t, "traced-chaos", ref)
	for _, shards := range detShardCounts() {
		got, _ := runFingerprint(t, cfgFn(), shards, true)
		if !bytes.Equal(ref, got) {
			t.Errorf("traced run at shards=%d diverges: %s", shards, diffLine(ref, got))
		}
	}
}

// TestShardDeterminismPolicyTraced is the traced arm of the policy
// scenarios: a value-drop run with a coflow workload under the sampling
// tracer, so the NIC-eviction trace events and the coflow flows' lifecycle
// records must also be byte-identical across shard counts.
func TestShardDeterminismPolicyTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run cross-check")
	}
	cfgFn := func() network.Config {
		cfg := detBase()
		cfg.Load = 1.0
		cfg.ClassShare = [packet.NumClasses]float64{0.1, 0.1, 0.6, 0.2}
		cfg.HotspotFraction = 0.7
		cfg.HotspotHost = 0
		cfg.Policy = policy.ValueDrop(32*units.Kilobyte, false)
		cfg.Coflows = &coflow.Config{StartAt: cfg.WarmUp, Rounds: 4, Chunk: 4 * units.Kilobyte}
		return cfg
	}
	ref, _ := runFingerprint(t, cfgFn(), 1, true)
	checkGolden(t, "traced-policy", ref)
	for _, shards := range detShardCounts() {
		got, _ := runFingerprint(t, cfgFn(), shards, true)
		if !bytes.Equal(ref, got) {
			t.Errorf("policy traced run at shards=%d diverges: %s", shards, diffLine(ref, got))
		}
	}
}

// TestShardDeterminismProtectionTraced is the traced arm of the
// guarantee-protection scenarios: babbling rogues against the policer and
// the occupancy guard under the sampling tracer, so the KindPoliced
// demotion events and the demoted packets' best-effort lifecycle records
// must also be byte-identical across shard counts.
func TestShardDeterminismProtectionTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run cross-check")
	}
	cfgFn := func() network.Config {
		cfg := detBase()
		horizon := cfg.WarmUp + cfg.Measure
		cfg.Load = 1.0
		cfg.Faults = RoguePlan(cfg.Topology.Hosts(), horizon/8, horizon, 4)
		cfg.Police = true
		cfg.GuardBytes = 8 * units.Kilobyte
		return cfg
	}
	ref, _ := runFingerprint(t, cfgFn(), 1, true)
	checkGolden(t, "traced-protection", ref)
	for _, shards := range detShardCounts() {
		got, _ := runFingerprint(t, cfgFn(), shards, true)
		if !bytes.Equal(ref, got) {
			t.Errorf("protection traced run at shards=%d diverges: %s", shards, diffLine(ref, got))
		}
	}
}

// TestShardsRejectsTraceCallbacks pins the validation rule: user packet
// callbacks cannot run concurrently on shard goroutines.
func TestShardsRejectsTraceCallbacks(t *testing.T) {
	cfg := detBase()
	cfg.Shards = 2
	cfg.Trace = network.Trace{Generated: func(p *packet.Packet) {}}
	if _, err := network.New(cfg); err == nil {
		t.Fatal("Shards > 1 with Trace callbacks must be rejected")
	}
}

// TestPartitionPlanner pins the planner's invariants: round-robin switch
// assignment, hosts co-located with their leaf, and clamping.
func TestPartitionPlanner(t *testing.T) {
	topo := network.SmallConfig().Topology
	swShard, hostShard, eff := network.Partition(topo, 4)
	if eff != 4 {
		t.Fatalf("effective shards = %d, want 4", eff)
	}
	for sw, s := range swShard {
		if s != sw%4 {
			t.Fatalf("switch %d on shard %d, want %d", sw, s, sw%4)
		}
	}
	for sw := 0; sw < topo.Switches(); sw++ {
		for p := 0; p < topo.Radix(sw); p++ {
			if peer := topo.Peer(sw, p); peer.ID >= 0 && peer.IsHost {
				if hostShard[peer.ID] != swShard[sw] {
					t.Fatalf("host %d on shard %d, leaf switch %d on shard %d",
						peer.ID, hostShard[peer.ID], sw, swShard[sw])
				}
			}
		}
	}
	if _, _, eff := network.Partition(topo, 1000); eff != topo.Switches() {
		t.Fatalf("shard count not clamped to switch count: %d", eff)
	}
	if _, _, eff := network.Partition(topo, 0); eff != 1 {
		t.Fatalf("shard count not clamped up to 1: %d", eff)
	}
}

// TestFaultPlanRejectedWithoutLookahead pins the config rule that sharded
// runs need at least one cycle of lookahead.
func TestFaultPlanRejectedWithoutLookahead(t *testing.T) {
	cfg := detBase()
	cfg.Shards = 2
	cfg.PropDelay = 0
	if _, err := network.New(cfg); err == nil {
		t.Fatal("Shards > 1 with zero PropDelay must be rejected")
	}
}
