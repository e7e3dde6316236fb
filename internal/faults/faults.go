// Package faults implements a deterministic, seed-driven fault-injection
// subsystem for the simulated network.
//
// The paper's architectures assume a lossless, always-up fabric
// (credit-based flow control, §2.2). Real interconnects flap links,
// corrupt packets and lose capacity, so this package models three fault
// processes, all replayable from (plan, seed):
//
//   - Link flaps: timed link-down/link-up events. A down link accepts no
//     new transmissions and every packet in flight on it when it drops is
//     lost. The credits those packets held are restored to the sender
//     (the downstream buffer never sees them), so flow control survives
//     the flap without leaking.
//   - Time-varying derating: timed bandwidth changes, generalising the
//     static Config.DegradedLinks to mid-run capacity loss and recovery.
//   - Bit errors: a per-link bit-error rate corrupts packets in flight.
//     Corruption is detected by the destination NIC's CRC check (see
//     internal/hostif), which drops the packet and triggers the
//     end-to-end recovery machinery.
//
// Fault events address switch output links by (switch, port), matching
// Config.DegradedLinks. A Plan is installed into the simulation engine by
// the network at build time; identical seeds and plans replay identical
// fault traces, keeping chaos runs as reproducible as fault-free ones.
//
// The package also defines the Conservation record: the run-level packet
// accounting that must balance exactly in every run — faulty or not — and
// whose Check method is the simulator's end-to-end "no packet is ever
// lost without being accounted" invariant.
package faults

import (
	"fmt"
	"math"
	"sort"

	"deadlineqos/internal/link"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

// LinkID identifies a switch output link, as Config.DegradedLinks does.
// Host injection links are not individually addressable; the DefaultBER
// of a plan covers them. Switch-scoped events (SwitchDown/SwitchUp) set
// Port to -1: they address the whole switch, not one of its links.
type LinkID struct {
	Switch, Port int
}

// SwitchID returns the LinkID form addressing a whole switch (Port -1),
// used by SwitchDown/SwitchUp events.
func SwitchID(sw int) LinkID { return LinkID{Switch: sw, Port: -1} }

// WiredLinks enumerates every wired switch output link of a topology in
// (switch, port) order — the link set random fault plans draw from.
func WiredLinks(topo topology.Topology) []LinkID {
	var ids []LinkID
	for sw := 0; sw < topo.Switches(); sw++ {
		for p := 0; p < topo.Radix(sw); p++ {
			if topo.Peer(sw, p).ID != -1 {
				ids = append(ids, LinkID{Switch: sw, Port: p})
			}
		}
	}
	return ids
}

// String renders the link id.
func (id LinkID) String() string {
	if id.Port < 0 {
		return fmt.Sprintf("sw%d", id.Switch)
	}
	return fmt.Sprintf("sw%d:p%d", id.Switch, id.Port)
}

// Kind enumerates the fault event types.
type Kind uint8

// Fault event kinds.
const (
	// LinkDown drops the link: in-flight packets are lost (credits
	// restored to the sender) and no new transmission starts until the
	// matching LinkUp.
	LinkDown Kind = iota
	// LinkUp restores a downed link and re-fires the sender's
	// re-arbitration callback.
	LinkUp
	// Derate sets the link bandwidth to Scale x nominal (Scale 1
	// restores full capacity).
	Derate
	// SwitchDown kills a whole switch (Event.Link = SwitchID(sw), Port
	// -1): every link into and out of it drops, its queued and
	// in-crossbar packets are discarded (accounted as DroppedInSwitch),
	// and the route-repair layer recomputes paths around it.
	SwitchDown
	// SwitchUp restores a downed switch and every link attached to it,
	// overriding any earlier single-link LinkDown on those ports.
	SwitchUp
	// PortDown severs one cable bidirectionally: the addressed output
	// link and its reverse direction both drop.
	PortDown
	// PortUp restores a cable downed by PortDown.
	PortUp
	// RogueFlow is a behavioural fault: over the window [At, Until) the
	// host Event.Host babbles — it multiplies its regulated traffic
	// generation by Scale (> 1), stops honouring the eligibility shaper
	// on the flows it overdrives, and resets its deadline virtual clock
	// per message, stamping every packet as freshly urgent instead of
	// chaining from the flow's consumed rate. The NIC policer
	// (internal/police), when enabled, demotes the excess to best
	// effort; unpoliced, the urgent-stamped excess floods the regulated
	// VC and starves honest flows at every EDF arbitration point. Scale
	// exactly 1 is a baseline sentinel: the host is only marked in the
	// innocent/rogue accounting split and behaves normally.
	RogueFlow
	// DeadlineForge is a behavioural fault: over [At, Until) the host
	// Event.Host stamps deadlines tightened by factor Scale (in (0, 1)),
	// claiming more urgency than its reserved BWavg permits. The policer
	// detects the forged stamps against the deadline envelope the BWavg
	// rule defines and demotes them.
	DeadlineForge
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "down"
	case LinkUp:
		return "up"
	case Derate:
		return "derate"
	case SwitchDown:
		return "sw-down"
	case SwitchUp:
		return "sw-up"
	case PortDown:
		return "port-down"
	case PortUp:
		return "port-up"
	case RogueFlow:
		return "rogue-flow"
	case DeadlineForge:
		return "deadline-forge"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// SwitchScoped reports whether the kind addresses a whole switch (Port
// must be -1) rather than a single output link.
func (k Kind) SwitchScoped() bool { return k == SwitchDown || k == SwitchUp }

// Topological reports whether the kind changes reachability and so drives
// the route-repair layer (link flaps do not: the reliability layer covers
// transient loss, and flapped links keep their routes).
func (k Kind) Topological() bool {
	return k == SwitchDown || k == SwitchUp || k == PortDown || k == PortUp
}

// Behavioural reports whether the kind models endpoint misbehaviour (a
// host violating its admission contract) rather than an infrastructure
// fault. Behavioural events address a host over a window, not a link at
// an instant, and are installed by the network on the host's shard.
func (k Kind) Behavioural() bool { return k == RogueFlow || k == DeadlineForge }

// Event is one timed fault of a plan.
type Event struct {
	At   units.Time
	Link LinkID
	Kind Kind
	// Scale is the remaining capacity fraction for Derate events
	// ((0, 1]; ignored by LinkDown/LinkUp). For behavioural kinds it is
	// the misbehaviour factor: the traffic multiplier (≥ 1; exactly 1
	// marks the host in the rogue accounting split without excess
	// traffic) of a RogueFlow, or the deadline-tightening factor (in
	// (0, 1)) of a DeadlineForge.
	Scale float64
	// Host is the misbehaving host of a behavioural event (RogueFlow,
	// DeadlineForge); ignored by the link- and switch-scoped kinds.
	Host int
	// Until ends a behavioural event's window [At, Until); ignored by the
	// instantaneous kinds.
	Until units.Time
}

// String renders the event for traces.
func (e Event) String() string {
	if e.Kind.Behavioural() {
		return fmt.Sprintf("%v host%d %s %.2f until %v", e.At, e.Host, e.Kind, e.Scale, e.Until)
	}
	if e.Kind == Derate {
		return fmt.Sprintf("%v %s %s %.2f", e.At, e.Link, e.Kind, e.Scale)
	}
	return fmt.Sprintf("%v %s %s", e.At, e.Link, e.Kind)
}

// TraceEntry is one executed fault event. Applied is false when the event
// had no effect (e.g. LinkDown on an already-down link), so two runs of
// the same plan produce byte-identical traces including the skips.
type TraceEntry struct {
	Event
	Applied bool
}

// String renders the trace entry.
func (t TraceEntry) String() string {
	if t.Applied {
		return t.Event.String()
	}
	return t.Event.String() + " (no-op)"
}

// Plan is a deterministic fault schedule for one run.
type Plan struct {
	// Seed drives the per-link corruption streams. Independent of the
	// run's traffic seed so the same fault pattern can be replayed
	// against different workloads.
	Seed uint64
	// Events are the timed link faults, in any order; installation sorts
	// them by time (stable, so same-cycle events keep plan order).
	Events []Event
	// BER assigns per-link bit-error rates (probability per bit).
	BER map[LinkID]float64
	// DefaultBER applies to every link of the network — including host
	// injection links — that has no explicit BER entry.
	DefaultBER float64
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Events) == 0 && len(p.BER) == 0 && p.DefaultBER == 0)
}

// HasTopological reports whether the plan contains any reachability-
// changing event (switch or port down/up) — the trigger for the network's
// route-repair layer.
func (p *Plan) HasTopological() bool {
	if p == nil {
		return false
	}
	for _, e := range p.Events {
		if e.Kind.Topological() {
			return true
		}
	}
	return false
}

// HasBehavioural reports whether the plan contains any endpoint-
// misbehaviour event (RogueFlow, DeadlineForge) — the trigger for the
// network's per-host behaviour windows.
func (p *Plan) HasBehavioural() bool {
	if p == nil {
		return false
	}
	for _, e := range p.Events {
		if e.Kind.Behavioural() {
			return true
		}
	}
	return false
}

// Validate rejects malformed plans against a topology described by its
// switch count, host count and per-switch radix.
func (p *Plan) Validate(switches, hosts int, radix func(sw int) int) error {
	if p == nil {
		return nil
	}
	checkLink := func(id LinkID) error {
		if id.Switch < 0 || id.Switch >= switches || id.Port < 0 || id.Port >= radix(id.Switch) {
			return fmt.Errorf("faults: link %v not in topology", id)
		}
		return nil
	}
	for _, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("faults: event %q scheduled before time zero", e)
		}
		switch e.Kind {
		case LinkDown, LinkUp, PortDown, PortUp:
			if err := checkLink(e.Link); err != nil {
				return err
			}
		case Derate:
			if err := checkLink(e.Link); err != nil {
				return err
			}
			if e.Scale <= 0 || e.Scale > 1 {
				return fmt.Errorf("faults: derate scale %v of %q out of (0,1]", e.Scale, e)
			}
		case SwitchDown, SwitchUp:
			if e.Link.Switch < 0 || e.Link.Switch >= switches {
				return fmt.Errorf("faults: switch event %q references switch outside [0,%d)", e, switches)
			}
			if e.Link.Port != -1 {
				return fmt.Errorf("faults: switch event %q must use Port -1 (whole switch), got port %d", e, e.Link.Port)
			}
		case RogueFlow, DeadlineForge:
			if e.Host < 0 || e.Host >= hosts {
				return fmt.Errorf("faults: behavioural event %q references host outside [0,%d)", e, hosts)
			}
			if e.Until <= e.At {
				return fmt.Errorf("faults: behavioural event %q has a zero-width window (Until %v <= At %v)", e, e.Until, e.At)
			}
			// Scale exactly 1 is a sentinel: the host is marked in the
			// innocent/rogue accounting split without emitting any excess
			// traffic, giving experiments a baseline measured over the
			// identical flow population.
			if e.Kind == RogueFlow && e.Scale < 1 {
				return fmt.Errorf("faults: rogue-flow scale %v of %q must be at least 1", e.Scale, e)
			}
			if e.Kind == DeadlineForge && (e.Scale <= 0 || e.Scale >= 1) {
				return fmt.Errorf("faults: deadline-forge scale %v of %q out of (0,1)", e.Scale, e)
			}
		default:
			return fmt.Errorf("faults: unknown event kind %d", e.Kind)
		}
	}
	if err := p.checkSwitchOverlaps(); err != nil {
		return err
	}
	if err := p.checkBehaviouralOverlaps(); err != nil {
		return err
	}
	if p.DefaultBER < 0 || p.DefaultBER >= 1 {
		return fmt.Errorf("faults: default BER %v out of [0,1)", p.DefaultBER)
	}
	for id, ber := range p.BER {
		if err := checkLink(id); err != nil {
			return err
		}
		if ber < 0 || ber >= 1 {
			return fmt.Errorf("faults: BER %v of link %v out of [0,1)", ber, id)
		}
	}
	return nil
}

// checkSwitchOverlaps replays the normalized switch/port event sequence
// and rejects overlapping outages: a SwitchDown while the switch is
// already down (or a SwitchUp while up) would make the expanded per-link
// action sequence — and with it the cross-shard loss predicate —
// ambiguous, so it is a plan error rather than a runtime no-op. The same
// rule applies per (switch, port) to PortDown/PortUp.
func (p *Plan) checkSwitchOverlaps() error {
	swDown := map[int]bool{}
	portDown := map[LinkID]bool{}
	for _, e := range p.Normalized() {
		switch e.Kind {
		case SwitchDown:
			if swDown[e.Link.Switch] {
				return fmt.Errorf("faults: event %q downs switch %d while it is already down", e, e.Link.Switch)
			}
			swDown[e.Link.Switch] = true
		case SwitchUp:
			if !swDown[e.Link.Switch] {
				return fmt.Errorf("faults: event %q restores switch %d while it is already up", e, e.Link.Switch)
			}
			swDown[e.Link.Switch] = false
		case PortDown:
			if portDown[e.Link] {
				return fmt.Errorf("faults: event %q downs port %v while it is already down", e, e.Link)
			}
			portDown[e.Link] = true
		case PortUp:
			if !portDown[e.Link] {
				return fmt.Errorf("faults: event %q restores port %v while it is already up", e, e.Link)
			}
			portDown[e.Link] = false
		}
	}
	return nil
}

// checkBehaviouralOverlaps replays the normalized behavioural events and
// rejects windows that overlap per (host, kind): two concurrent RogueFlow
// windows on one host would make the effective traffic multiplier — and
// with it every policing decision — ambiguous, so it is a plan error.
func (p *Plan) checkBehaviouralOverlaps() error {
	type key struct {
		host int
		kind Kind
	}
	busyUntil := map[key]units.Time{}
	for _, e := range p.Normalized() {
		if !e.Kind.Behavioural() {
			continue
		}
		k := key{e.Host, e.Kind}
		if e.At < busyUntil[k] {
			return fmt.Errorf("faults: behavioural event %q overlaps an earlier %v window on host %d (busy until %v)",
				e, e.Kind, e.Host, busyUntil[k])
		}
		busyUntil[k] = e.Until
	}
	return nil
}

// BEROf returns the bit-error rate the plan assigns to id.
func (p *Plan) BEROf(id LinkID) float64 {
	if p == nil {
		return 0
	}
	if ber, ok := p.BER[id]; ok {
		return ber
	}
	return p.DefaultBER
}

// Normalized returns the plan's events sorted by time (stable, so
// same-cycle events keep plan order) — the exact order Install executes
// them in. The sharded network uses it to give every event a global index
// before splitting the schedule across per-shard injectors.
func (p *Plan) Normalized() []Event {
	if p == nil {
		return nil
	}
	evs := make([]Event, len(p.Events))
	copy(evs, p.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// CorruptionStream derives the deterministic random stream that decides
// packet corruption on link id. Streams are keyed by (plan seed, link),
// so identical plans corrupt identically regardless of event ordering
// elsewhere in the run.
func (p *Plan) CorruptionStream(id LinkID) *xrand.Rand {
	key := uint64(id.Switch)<<20 | uint64(id.Port)<<1 | 1
	return xrand.New(p.Seed ^ 0x5eedfa01).Split(key)
}

// HostCorruptionStream derives the corruption stream for host h's
// injection link. Host links are not individually addressable by LinkID,
// so they only carry the plan's DefaultBER; their stream keys (bit 0
// clear) are disjoint from CorruptionStream's (bit 0 set).
func (p *Plan) HostCorruptionStream(host int) *xrand.Rand {
	return xrand.New(p.Seed ^ 0x5eedfa01).Split(uint64(host) << 1)
}

// Injector schedules a plan's events into a simulation engine and records
// the executed trace.
type Injector struct {
	trace  []TraceEntry
	events uint64
}

// Install schedules every event of the plan. resolve maps a LinkID to the
// live link, returning nil for unwired ports (already rejected by
// Validate when the network built the plan's topology). onEvent, when
// non-nil, observes each executed event.
func (inj *Injector) Install(plan *Plan, eng *sim.Engine, resolve func(LinkID) *link.Link, onEvent func(TraceEntry)) {
	if plan == nil {
		return
	}
	evs := plan.Normalized()
	indexes := make([]int, len(evs))
	for i := range indexes {
		indexes[i] = i
	}
	var wrapped func(int, TraceEntry)
	if onEvent != nil {
		wrapped = func(_ int, entry TraceEntry) { onEvent(entry) }
	}
	inj.InstallEvents(evs, indexes, eng, resolve, wrapped)
}

// InstallEvents schedules an explicit slice of already-normalized events
// (see Plan.Normalized). indexes carries each event's position in the full
// normalized plan and is passed through to onEvent, which lets a sharded
// run install disjoint subsets of one plan on several engines and still
// reassemble the global trace in sequential firing order. len(indexes)
// must equal len(evs).
func (inj *Injector) InstallEvents(evs []Event, indexes []int, eng *sim.Engine, resolve func(LinkID) *link.Link, onEvent func(int, TraceEntry)) {
	if len(evs) != len(indexes) {
		panic(fmt.Sprintf("faults: %d events with %d indexes", len(evs), len(indexes)))
	}
	for i, ev := range evs {
		ev := ev
		idx := indexes[i]
		if ev.Kind.Topological() {
			// Switch/port events expand to many link actions plus buffer
			// drains; the network installs those itself (see
			// network.installFaults), never through the Injector.
			panic(fmt.Sprintf("faults: topological event %q passed to Injector", ev))
		}
		if ev.Kind.Behavioural() {
			// Behavioural events toggle per-host misbehaviour windows on the
			// host's NIC; the network installs those itself on the host's
			// shard, never through the Injector.
			panic(fmt.Sprintf("faults: behavioural event %q passed to Injector", ev))
		}
		eng.At(ev.At, func() {
			l := resolve(ev.Link)
			applied := false
			if l != nil {
				switch ev.Kind {
				case LinkDown:
					applied = l.SetDown(true)
				case LinkUp:
					applied = l.SetDown(false)
				case Derate:
					applied = l.Derate(ev.Scale)
				}
			}
			entry := TraceEntry{Event: ev, Applied: applied}
			inj.events++
			inj.trace = append(inj.trace, entry)
			if onEvent != nil {
				onEvent(idx, entry)
			}
		})
	}
}

// Trace returns the executed fault events so far, in execution order.
func (inj *Injector) Trace() []TraceEntry { return inj.trace }

// Executed returns the number of fault events fired so far.
func (inj *Injector) Executed() uint64 { return inj.events }

// RandomConfig bounds the fault processes RandomPlan draws.
type RandomConfig struct {
	// Flaps is the number of down/up pairs to schedule.
	Flaps int
	// MinDown and MaxDown bound each flap's outage duration.
	MinDown, MaxDown units.Time
	// Derates is the number of derate/restore pairs to schedule.
	Derates int
	// MinScale bounds how far a derate may cut capacity (scale is drawn
	// from [MinScale, 1)).
	MinScale float64
	// BERLinks is how many links receive a random bit-error rate.
	BERLinks int
	// MaxBER bounds the drawn bit-error rates.
	MaxBER float64

	// Switches is the topology's switch count; required when SwitchFaults
	// is nonzero so the draw can address whole switches.
	Switches int
	// SwitchFaults is the number of SwitchDown/SwitchUp outage pairs to
	// schedule. Outages never overlap on the same switch (Validate rejects
	// that), so the generator serialises them per switch.
	SwitchFaults int
	// SwitchMTTF is the mean time between switch failures; outage start
	// times are drawn uniformly in [0, min(MTTF, horizon)) after the
	// switch's previous recovery. Zero means uniform over the horizon.
	SwitchMTTF units.Time
	// SwitchMTTR is the mean outage duration; each outage lasts uniformly
	// in [MTTR/2, 3*MTTR/2). Zero falls back to the flap bounds.
	SwitchMTTR units.Time

	// Hosts is the topology's host count; required when Rogues or Forges
	// is nonzero so the draw can address hosts.
	Hosts int
	// Rogues is the number of RogueFlow windows to schedule: each picks a
	// host and a window (drawn like flap outages, stretched 4x so the
	// overload persists long enough to matter) over which the host
	// multiplies its regulated traffic by RogueFactor. Windows never
	// overlap per host (Validate rejects that), so the generator
	// serialises them per host.
	Rogues int
	// RogueFactor is the traffic multiplier of generated RogueFlow
	// windows (default 4).
	RogueFactor float64
	// Forges is the number of DeadlineForge windows to schedule, drawn
	// like Rogues.
	Forges int
	// ForgeScale is the deadline-tightening factor of generated
	// DeadlineForge windows (default 0.5).
	ForgeScale float64
}

// RandomPlan draws a deterministic random fault plan over the given links
// and horizon: flap and derate schedules plus per-link BERs. The same
// (seed, links, horizon, cfg) always yields the same plan, which makes it
// suitable for fuzzing with reproducible failures.
func RandomPlan(seed uint64, links []LinkID, horizon units.Time, cfg RandomConfig) *Plan {
	rng := xrand.New(seed ^ 0xfa17ed)
	plan := &Plan{Seed: seed}
	if len(links) == 0 || horizon <= 0 {
		return plan
	}
	pick := func() LinkID { return links[rng.Intn(len(links))] }
	minDown, maxDown := cfg.MinDown, cfg.MaxDown
	if minDown <= 0 {
		minDown = horizon / 100
		if minDown <= 0 {
			minDown = 1
		}
	}
	if maxDown < minDown {
		maxDown = minDown
	}
	for i := 0; i < cfg.Flaps; i++ {
		id := pick()
		at := units.Time(rng.Int63n(int64(horizon)))
		dur := units.Time(rng.UniformInt(int64(minDown), int64(maxDown)))
		plan.Events = append(plan.Events,
			Event{At: at, Link: id, Kind: LinkDown},
			Event{At: at + dur, Link: id, Kind: LinkUp})
	}
	minScale := cfg.MinScale
	if minScale <= 0 || minScale > 1 {
		minScale = 0.2
	}
	for i := 0; i < cfg.Derates; i++ {
		id := pick()
		at := units.Time(rng.Int63n(int64(horizon)))
		dur := units.Time(rng.UniformInt(int64(minDown), int64(maxDown)))
		plan.Events = append(plan.Events,
			Event{At: at, Link: id, Kind: Derate, Scale: rng.Uniform(minScale, 1)},
			Event{At: at + dur, Link: id, Kind: Derate, Scale: 1})
	}
	if cfg.SwitchFaults > 0 && cfg.Switches > 0 {
		mttf := cfg.SwitchMTTF
		if mttf <= 0 || mttf > horizon {
			mttf = horizon
		}
		mttr := cfg.SwitchMTTR
		if mttr <= 0 {
			mttr = (minDown + maxDown) / 2
		}
		// Serialise outages per switch so Down/Down never overlaps (a plan
		// error): each new outage starts after the switch's last recovery.
		nextFree := make([]units.Time, cfg.Switches)
		for i := 0; i < cfg.SwitchFaults; i++ {
			sw := rng.Intn(cfg.Switches)
			at := nextFree[sw] + units.Time(rng.Int63n(int64(mttf)))
			lo, hi := mttr/2, mttr+mttr/2
			if lo <= 0 {
				lo = 1
			}
			if hi <= lo {
				hi = lo + 1
			}
			dur := units.Time(rng.UniformInt(int64(lo), int64(hi)))
			if at >= horizon {
				continue // drawn past the run; rng state already advanced
			}
			plan.Events = append(plan.Events,
				Event{At: at, Link: SwitchID(sw), Kind: SwitchDown},
				Event{At: at + dur, Link: SwitchID(sw), Kind: SwitchUp})
			nextFree[sw] = at + dur + 1
		}
	}
	if (cfg.Rogues > 0 || cfg.Forges > 0) && cfg.Hosts > 0 {
		factor := cfg.RogueFactor
		if factor <= 1 {
			factor = 4
		}
		forge := cfg.ForgeScale
		if forge <= 0 || forge >= 1 {
			forge = 0.5
		}
		// Serialise windows per (host, kind) so they never overlap (a plan
		// error): each new window starts after the host's previous one ends.
		draw := func(count int, kind Kind, scale float64, nextFree []units.Time) {
			for i := 0; i < count; i++ {
				h := rng.Intn(cfg.Hosts)
				at := nextFree[h] + units.Time(rng.Int63n(int64(horizon)))
				dur := 4 * units.Time(rng.UniformInt(int64(minDown), int64(maxDown)))
				if at >= horizon {
					continue // drawn past the run; rng state already advanced
				}
				plan.Events = append(plan.Events,
					Event{At: at, Kind: kind, Scale: scale, Host: h, Until: at + dur})
				nextFree[h] = at + dur + 1
			}
		}
		draw(cfg.Rogues, RogueFlow, factor, make([]units.Time, cfg.Hosts))
		draw(cfg.Forges, DeadlineForge, forge, make([]units.Time, cfg.Hosts))
	}
	if cfg.BERLinks > 0 && cfg.MaxBER > 0 {
		plan.BER = make(map[LinkID]float64, cfg.BERLinks)
		for i := 0; i < cfg.BERLinks; i++ {
			// Draw log-uniformly so tiny and harsh BERs both appear.
			exp := rng.Uniform(math.Log(cfg.MaxBER)-6, math.Log(cfg.MaxBER))
			plan.BER[pick()] = math.Exp(exp)
		}
	}
	return plan
}

// Conservation is the run-level packet accounting record. Every transfer
// copy entering the network must end in exactly one terminal state; the
// Check method verifies the balance.
type Conservation struct {
	// Generated counts unique packets created at the sending NICs.
	Generated uint64
	// Retransmissions counts retransmit copies queued by the reliability
	// layer (each creates one additional copy of a unique packet).
	Retransmissions uint64
	// InjectedCopies counts transmissions entering the network,
	// retransmits included.
	InjectedCopies uint64
	// DeliveredUnique counts unique packets handed to the application
	// (first good copy).
	DeliveredUnique uint64
	// ArrivedDup counts duplicate copies dropped by the receiver.
	ArrivedDup uint64
	// ArrivedCorrupt counts corrupted copies dropped by the receiver's
	// CRC check.
	ArrivedCorrupt uint64
	// LostOnLink counts copies lost in flight to link flaps.
	LostOnLink uint64
	// DroppedInSwitch counts copies discarded from a switch's buffers and
	// crossbar when a SwitchDown killed it.
	DroppedInSwitch uint64
	// InNetworkAtStop counts copies still inside the fabric when the run
	// stopped: switch buffers, crossbars in transfer, and link wires.
	InNetworkAtStop uint64
	// StagedAtStop counts copies still queued in sending NICs (never
	// injected, or retransmit copies awaiting injection).
	StagedAtStop uint64
	// EvictedAtNIC counts copies a bounded injection queue discarded
	// before they entered the network (value-drop scheduling policies).
	EvictedAtNIC uint64
	// PolicedDemotions counts packets the NIC policer demoted from the
	// regulated to the best-effort VC for violating their flow's
	// token-bucket envelope (internal/police). Demoted packets still
	// inject and deliver normally, so this is an informational overlay on
	// the balance, not a terminal state.
	PolicedDemotions uint64
	// DoubleDeliveries counts deliveries of an already-delivered unique
	// packet observed by the oracle (Config.CheckInvariants). Must be 0.
	DoubleDeliveries uint64
}

// Add accumulates other into c field-wise. The sharded network keeps one
// Conservation record per shard (each hook increments its own shard's)
// and sums them at stop; every counter is a plain count, so the sum is
// the sequential record.
func (c *Conservation) Add(other Conservation) {
	c.Generated += other.Generated
	c.Retransmissions += other.Retransmissions
	c.InjectedCopies += other.InjectedCopies
	c.DeliveredUnique += other.DeliveredUnique
	c.ArrivedDup += other.ArrivedDup
	c.ArrivedCorrupt += other.ArrivedCorrupt
	c.LostOnLink += other.LostOnLink
	c.DroppedInSwitch += other.DroppedInSwitch
	c.InNetworkAtStop += other.InNetworkAtStop
	c.StagedAtStop += other.StagedAtStop
	c.EvictedAtNIC += other.EvictedAtNIC
	c.PolicedDemotions += other.PolicedDemotions
	c.DoubleDeliveries += other.DoubleDeliveries
}

// Check verifies the conservation invariant: every copy created (unique
// generations plus retransmissions) is delivered exactly once, dropped
// and accounted (duplicate, corrupt, lost to a flap), or still staged or
// in flight at stop — and no unique packet is delivered twice.
func (c Conservation) Check() error {
	created := c.Generated + c.Retransmissions
	accounted := c.DeliveredUnique + c.ArrivedDup + c.ArrivedCorrupt +
		c.LostOnLink + c.DroppedInSwitch + c.InNetworkAtStop + c.StagedAtStop +
		c.EvictedAtNIC
	if created != accounted {
		return fmt.Errorf("faults: conservation violated: created %d (gen %d + retx %d) != accounted %d (delivered %d + dup %d + corrupt %d + lost %d + sw-dropped %d + in-network %d + staged %d + nic-evicted %d)",
			created, c.Generated, c.Retransmissions, accounted,
			c.DeliveredUnique, c.ArrivedDup, c.ArrivedCorrupt,
			c.LostOnLink, c.DroppedInSwitch, c.InNetworkAtStop, c.StagedAtStop,
			c.EvictedAtNIC)
	}
	injected := c.DeliveredUnique + c.ArrivedDup + c.ArrivedCorrupt + c.LostOnLink + c.DroppedInSwitch + c.InNetworkAtStop
	if c.InjectedCopies != injected {
		return fmt.Errorf("faults: injection accounting violated: injected %d != arrived+lost+sw-dropped+in-network %d",
			c.InjectedCopies, injected)
	}
	if c.DeliveredUnique > c.Generated {
		return fmt.Errorf("faults: delivered %d unique packets out of %d generated", c.DeliveredUnique, c.Generated)
	}
	if c.DoubleDeliveries > 0 {
		return fmt.Errorf("faults: %d double deliveries", c.DoubleDeliveries)
	}
	return nil
}

// String renders the record for reports.
func (c Conservation) String() string {
	return fmt.Sprintf("gen=%d retx=%d inj=%d dlvr=%d dup=%d corrupt=%d lost=%d swdrop=%d net=%d staged=%d",
		c.Generated, c.Retransmissions, c.InjectedCopies, c.DeliveredUnique,
		c.ArrivedDup, c.ArrivedCorrupt, c.LostOnLink, c.DroppedInSwitch,
		c.InNetworkAtStop, c.StagedAtStop)
}
