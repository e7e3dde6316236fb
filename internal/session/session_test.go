// Integration tests for the dynamic session subsystem: they build full
// networks (internal/network wires clients, the CAC manager, and the
// signalling flows) and assert on the reported session Results, so they
// cover the in-band protocol end to end — through real switches, links,
// and queueing.
package session_test

import (
	"strings"
	"testing"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/faults"
	"deadlineqos/internal/network"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/session"
	"deadlineqos/internal/units"
)

// base is a small, fast configuration with invariant checking on.
func base() network.Config {
	cfg := network.SmallConfig()
	cfg.Arch = arch.Advanced2VC
	cfg.WarmUp = 500 * units.Microsecond
	cfg.Measure = 3 * units.Millisecond
	cfg.Load = 0.6
	cfg.CheckInvariants = true
	return cfg
}

// run executes cfg and fails the test on any error or conservation
// violation.
func run(t *testing.T, cfg network.Config) *network.Results {
	t.Helper()
	res, err := network.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Conservation.Check(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLifecycle(t *testing.T) {
	cfg := base()
	cfg.Sessions = &session.Config{
		InterArrival: 400 * units.Microsecond,
		HoldMean:     units.Millisecond,
	}
	s := run(t, cfg).Sessions
	if s == nil {
		t.Fatal("no session results")
	}
	if s.Started == 0 || s.Granted == 0 {
		t.Fatalf("no sessions ran: started=%d granted=%d", s.Started, s.Granted)
	}
	// Every grant the clients saw was measured across the in-band round
	// trip; the fabric cannot deliver it in zero time.
	if s.SetupCount != s.Granted {
		t.Errorf("setup latency samples %d != grants %d", s.SetupCount, s.Granted)
	}
	if s.SetupP50 <= 0 || s.SetupP99 < s.SetupP50 {
		t.Errorf("implausible setup latency p50=%v p99=%v", s.SetupP50, s.SetupP99)
	}
	// Without faults nothing is lost: grants trail accepts only by
	// messages still in flight at the horizon, and every released record
	// was torn down by a client.
	if s.Granted > s.Accepted+s.DupSetups {
		t.Errorf("granted %d > accepted %d + dup re-grants %d", s.Granted, s.Accepted, s.DupSetups)
	}
	if s.Finished > s.Started {
		t.Errorf("finished %d > started %d", s.Finished, s.Started)
	}
	if s.Released > s.TeardownsSent {
		t.Errorf("released %d > teardowns sent %d", s.Released, s.TeardownsSent)
	}
	if s.DataPackets == 0 || s.SigPackets == 0 {
		t.Errorf("no session traffic delivered: data=%d sig=%d", s.DataPackets, s.SigPackets)
	}
	if s.ReservedUtil <= 0 || s.AchievedUtil <= 0 {
		t.Errorf("utilisation not measured: reserved=%v achieved=%v", s.ReservedUtil, s.AchievedUtil)
	}
	if s.Revoked != 0 {
		t.Errorf("revocations without faults: %d", s.Revoked)
	}
}

func TestSaturationRejects(t *testing.T) {
	cfg := base()
	cfg.Load = 1.0
	cfg.Sessions = &session.Config{
		InterArrival: 60 * units.Microsecond,
		HoldMean:     3 * units.Millisecond,
	}
	s := run(t, cfg).Sessions
	// Offered reserved bandwidth far exceeds capacity: the CAC must say
	// no, and the ratio of sessions that kept a reservation must drop
	// below 1 (the rest retried into best effort).
	if s.Rejected == 0 {
		t.Fatalf("no rejects at saturation: %+v", s)
	}
	if s.AcceptRatio >= 1 {
		t.Fatalf("accept ratio %v at saturation, want < 1", s.AcceptRatio)
	}
	if s.Downgraded == 0 {
		t.Errorf("no session downgraded to best effort at saturation")
	}
	if s.Retries == 0 {
		t.Errorf("no setup retries at saturation")
	}
}

func TestSetupLatencyGrowsWithLoad(t *testing.T) {
	p99 := func(load float64) units.Time {
		cfg := base()
		cfg.Load = load
		cfg.Sessions = &session.Config{
			InterArrival: 200 * units.Microsecond,
			HoldMean:     units.Millisecond,
		}
		return run(t, cfg).Sessions.SetupP99
	}
	lo, hi := p99(0.1), p99(1.0)
	if lo <= 0 {
		t.Fatalf("setup p99 not measured at low load: %v", lo)
	}
	if hi <= lo {
		t.Errorf("setup p99 not load-dependent: %v at 10%% load, %v at 100%%", lo, hi)
	}
}

func TestDerateRevokesReservations(t *testing.T) {
	cfg := base()
	cfg.Sessions = &session.Config{
		InterArrival: 60 * units.Microsecond,
		HoldMean:     3 * units.Millisecond,
	}
	// Derate every link to 35% mid-run: whatever the CAC reserved above
	// that must be revoked, and with no surviving headroom anywhere most
	// victims are told to continue best effort.
	plan := &faults.Plan{}
	for _, id := range faults.WiredLinks(cfg.Topology) {
		plan.Events = append(plan.Events,
			faults.Event{At: 1500 * units.Microsecond, Link: id, Kind: faults.Derate, Scale: 0.35})
	}
	cfg.Faults = plan
	s := run(t, cfg).Sessions
	if s.Revoked == 0 {
		t.Fatalf("derate stranded no reservations: %+v", s)
	}
	if s.Rerouted+s.RevokeDowngrades != s.Revoked {
		t.Errorf("revocations unaccounted: revoked=%d rerouted=%d downgraded=%d",
			s.Revoked, s.Rerouted, s.RevokeDowngrades)
	}
}

func TestFlashCrowd(t *testing.T) {
	started := func(flash float64) uint64 {
		cfg := base()
		cfg.Sessions = &session.Config{
			InterArrival: 400 * units.Microsecond,
			HoldMean:     units.Millisecond,
			FlashFactor:  flash,
			FlashAt:      units.Millisecond,
			FlashLen:     units.Millisecond,
		}
		return run(t, cfg).Sessions.Started
	}
	quiet, flash := started(0), started(8)
	if flash <= quiet {
		t.Errorf("flash crowd did not raise arrivals: %d quiet vs %d flash", quiet, flash)
	}
}

// TestLateGrantRetryRace pins the race where a Grant arrives after the
// response timeout already scheduled a retry but before that retry fires:
// the client must accept the grant, cancel the pending backoff timer (no
// leaked retry, no duplicate reservation), and the CAC must dedup any
// retried Setup that was already in flight. A response timeout far below
// the fabric round trip forces the race on essentially every session.
func TestLateGrantRetryRace(t *testing.T) {
	cfg := base()
	cfg.Sessions = &session.Config{
		InterArrival: 300 * units.Microsecond,
		HoldMean:     units.Millisecond,
		RespTimeout:  units.Microsecond, // < in-band RTT: every grant is late
		RetryBackoff: 300 * units.Microsecond,
		MaxRetries:   6,
	}
	s := run(t, cfg).Sessions
	if s.Timeouts == 0 {
		t.Fatalf("timeout shorter than the RTT produced no timeouts: %+v", s)
	}
	if s.Granted == 0 {
		t.Fatalf("no late grant won the race against its retry: %+v", s)
	}
	// No double-reserve: every client grant traces to one CAC accept or an
	// idempotent duplicate re-grant, and releases never exceed teardowns.
	if s.Granted > s.Accepted+s.DupSetups {
		t.Errorf("granted %d > accepted %d + dup re-grants %d (double grant)",
			s.Granted, s.Accepted, s.DupSetups)
	}
	if s.Released > s.TeardownsSent {
		t.Errorf("released %d > teardowns sent %d", s.Released, s.TeardownsSent)
	}
	// No leaked retry timer: a retry firing after its session left the
	// signalling state would send a fresh Setup and count a retry without
	// a preceding timeout/reject; the schedule bounds retries by decided
	// signalling events.
	if s.Retries > s.Timeouts+s.RejectsSeen {
		t.Errorf("retries %d exceed timeouts %d + rejects %d (leaked retry timer)",
			s.Retries, s.Timeouts, s.RejectsSeen)
	}
}

func TestSessionTelemetrySeries(t *testing.T) {
	cfg := base()
	cfg.Sessions = &session.Config{
		InterArrival: 200 * units.Microsecond,
		HoldMean:     units.Millisecond,
	}
	cfg.ProbeInterval = 200 * units.Microsecond
	res := run(t, cfg)
	if res.Telemetry == nil || len(res.Telemetry.Sessions) == 0 {
		t.Fatal("no session telemetry series")
	}
	var peak int
	for _, smp := range res.Telemetry.Sessions {
		if smp.Active > peak {
			peak = smp.Active
		}
	}
	if peak == 0 {
		t.Errorf("session probe never saw an active session")
	}
	last := res.Telemetry.Sessions[len(res.Telemetry.Sessions)-1]
	if last.Accepted == 0 {
		t.Errorf("session probe counters stayed zero")
	}
	var sb strings.Builder
	if err := res.Telemetry.WriteSessionsCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != len(res.Telemetry.Sessions)+1 {
		t.Errorf("session CSV has %d lines, want %d", lines, len(res.Telemetry.Sessions)+1)
	}
}

func TestConfigValidate(t *testing.T) {
	ok := session.Config{}.WithDefaults()
	if err := ok.Validate(16); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*session.Config)
		host int
	}{
		{"one host", func(c *session.Config) {}, 1},
		{"manager out of range", func(c *session.Config) { c.Manager = 16 }, 16},
		{"negative inter-arrival", func(c *session.Config) { c.InterArrival = -1 }, 16},
		{"zero signalling size", func(c *session.Config) { c.SigMsgSize = -1 }, 16},
		{"flash factor below 1", func(c *session.Config) { c.FlashFactor = 0.5 }, 16},
		{"no profiles", func(c *session.Config) { c.Profiles = nil }, 16},
		{"zero-weight profile", func(c *session.Config) {
			c.Profiles = []session.Profile{{Weight: 0, Class: packet.Control, BW: 0.01, MsgSize: 64}}
		}, 16},
		{"zero-bw profile", func(c *session.Config) {
			c.Profiles = []session.Profile{{Weight: 1, Class: packet.Control, MsgSize: 64}}
		}, 16},
	}
	for _, tc := range bad {
		c := ok
		// Validate takes an already-defaulted config, so mutations are not
		// re-defaulted away.
		tc.mut(&c)
		if tc.name == "no profiles" {
			c.Profiles = nil
		}
		if err := c.Validate(tc.host); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestFlowIDPlan(t *testing.T) {
	if session.SigUp(3) == session.SigDown(3) {
		t.Error("up and down signalling flows collide")
	}
	for _, id := range []packet.FlowID{session.SigUp(0), session.SigDown(15)} {
		if !session.IsSignalling(id) || session.IsSessionData(id) {
			t.Errorf("flow %#x misclassified", id)
		}
	}
	d := session.DataFlowID(15, 42)
	if !session.IsSessionData(d) || session.IsSignalling(d) {
		t.Errorf("data flow %#x misclassified", d)
	}
	if session.IsSignalling(1) || session.IsSessionData(1) {
		t.Error("static flow id misclassified as session flow")
	}
	if session.DataFlowID(1, 7) == session.DataFlowID(2, 7) || session.DataFlowID(1, 7) == session.DataFlowID(1, 8) {
		t.Error("data flow ids collide across hosts or sequences")
	}
}
