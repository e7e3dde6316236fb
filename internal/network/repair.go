package network

// Route repair and graceful degradation under switch/port failures.
//
// The paper's admission control fixes a source route per flow (§3). When a
// fault plan kills a switch or cuts a cable, every fixed route crossing it
// blackholes. This file models the fabric-management reaction for the
// statically provisioned flows (the dynamic session subsystem repairs its
// own flows through the CAC, see internal/session): a build-time replay of
// the plan's topological events decides, deterministically, which flows
// break at each fault, computes a repaired route over the surviving fabric
// (topology.RepairPath), and schedules the route swap RepairDelay after
// the fault on the owning host's shard. Pairs the surviving fabric cannot
// connect degrade gracefully: the source keeps transmitting, the dead
// links and switches account every packet, and the flow is reported
// unreachable instead of wedging the run.
//
// Because the whole decision process replays the static plan at build
// time, it is a pure function of (topology, plan): the schedule — and with
// it every counter below — is byte-identical at any shard count.

import (
	"fmt"

	"deadlineqos/internal/faults"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/stats"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/units"
)

// Availability summarises fabric health under topological faults: outage
// exposure, repair activity over static flows and dynamic sessions, and
// the time-to-repair distribution. Nil in Results unless the fault plan
// contains switch or port events.
type Availability struct {
	// Executed topological fault events (inside the run horizon).
	SwitchDowns uint64 `json:"switch_downs"`
	SwitchUps   uint64 `json:"switch_ups"`
	PortDowns   uint64 `json:"port_downs"`
	// Downtime is the summed per-switch outage time, clipped to the
	// horizon (two switches down for 1 ms each count 2 ms).
	Downtime units.Time `json:"downtime"`

	// Static provisioned flows (sessions are counted separately below).
	// Rerouted moves a live flow to a detour; Restored re-validates a flow
	// that was blackholing (by repair after an outage, or because the
	// fault's clearing revived its route); Unreachable marks a flow whose
	// host pair the surviving fabric cannot connect.
	FlowsRerouted    uint64 `json:"flows_rerouted"`
	FlowsRestored    uint64 `json:"flows_restored"`
	FlowsUnreachable uint64 `json:"flows_unreachable"`

	// Dynamic sessions stranded by switch/port failures (from the session
	// manager's reroute-or-revoke machinery).
	SessionsRevoked     uint64 `json:"sessions_revoked"`
	SessionsRerouted    uint64 `json:"sessions_rerouted"`
	SessionsDowngraded  uint64 `json:"sessions_downgraded"`
	SessionsUnreachable uint64 `json:"sessions_unreachable"`

	// Time-to-repair over every repair performed — static route swaps
	// (fault instant to swap) and session reroutes (fault instant to the
	// client's in-band receipt of the new route).
	RepairCount uint64     `json:"repair_count"`
	RepairP50   units.Time `json:"repair_p50"`
	RepairP99   units.Time `json:"repair_p99"`
}

// String renders the availability summary for reports.
func (a *Availability) String() string {
	return fmt.Sprintf("downs=%d ups=%d portcuts=%d downtime=%v rerouted=%d restored=%d unreachable=%d sess[revoked=%d rerouted=%d downgraded=%d unreachable=%d] ttr[p50=%v p99=%v n=%d]",
		a.SwitchDowns, a.SwitchUps, a.PortDowns, a.Downtime,
		a.FlowsRerouted, a.FlowsRestored, a.FlowsUnreachable,
		a.SessionsRevoked, a.SessionsRerouted, a.SessionsDowngraded, a.SessionsUnreachable,
		a.RepairP50, a.RepairP99, a.RepairCount)
}

// availShard is one shard's repair activity, recorded by the scheduled
// repair events as they execute (so a repair scheduled past the horizon is
// not counted) and merged order-independently at the end of Run.
type availShard struct {
	rerouted    uint64
	restored    uint64
	unreachable uint64
	ttr         *stats.Histogram
}

// regFlow is one statically provisioned flow registered with the repair
// coordinator.
type regFlow struct {
	host     int // owning (source) host
	id       packet.FlowID
	src, dst int
}

// registerRepairFlow records a provisioned flow for route repair and the
// gray-failure detector. No-op unless the fault plan contains topological
// events or the detector is armed.
func (n *Network) registerRepairFlow(host int, id packet.FlowID, src, dst int) {
	if !n.repairOn && !n.grayOn {
		return
	}
	n.repairFlows = append(n.repairFlows, regFlow{host: host, id: id, src: src, dst: dst})
}

// installRepair replays the plan's topological events at build time and
// schedules every repair decision into the shard engines. Runs after all
// static flows (traffic and session signalling) are provisioned.
func (n *Network) installRepair() {
	if !n.repairOn {
		return
	}
	horizon := n.cfg.WarmUp + n.cfg.Measure
	delay := n.cfg.RepairDelay
	for _, sh := range n.shards {
		sh.avail = &availShard{ttr: stats.NewHistogram()}
	}
	av := &Availability{}
	n.avail = av

	// Dead-set state machine, mirroring what the live fault installer does
	// to the links: a dead switch blocks all its links, a cut cable blocks
	// both its directions.
	deadSw := make(map[int]bool)
	deadLink := make(map[faults.LinkID]bool)
	blocked := func(sw, out int) bool {
		if deadSw[sw] || deadLink[faults.LinkID{Switch: sw, Port: out}] {
			return true
		}
		peer := n.topo.Peer(sw, out)
		return !peer.IsHost && peer.ID >= 0 && deadSw[peer.ID]
	}
	routeBroken := func(rf regFlow, route []int) bool {
		srcSw, srcPort := n.topo.HostPort(rf.src)
		if blocked(srcSw, srcPort) {
			return true // injection cable cut or source leaf dead
		}
		for _, h := range topology.RouteHops(n.topo, rf.src, route) {
			if blocked(h.Switch, h.OutPort) {
				return true
			}
		}
		return false
	}

	// Shadow routes track the coordinator's view: the route each flow will
	// have once its pending swap applies.
	routes := make([][]int, len(n.repairFlows))
	broken := make([]bool, len(n.repairFlows))
	brokenAt := make([]units.Time, len(n.repairFlows))
	for i, rf := range n.repairFlows {
		routes[i] = n.hosts[rf.host].Flow(rf.id).Route
	}
	downSince := make(map[int]units.Time)

	for _, ev := range planEvents(n.cfg.Faults) {
		if !ev.Kind.Topological() || ev.At > horizon {
			continue // events past the horizon never execute
		}
		switch ev.Kind {
		case faults.SwitchDown:
			deadSw[ev.Link.Switch] = true
			downSince[ev.Link.Switch] = ev.At
			av.SwitchDowns++
		case faults.SwitchUp:
			deadSw[ev.Link.Switch] = false
			av.SwitchUps++
			av.Downtime += ev.At - downSince[ev.Link.Switch]
			delete(downSince, ev.Link.Switch)
		case faults.PortDown, faults.PortUp:
			down := ev.Kind == faults.PortDown
			if down {
				av.PortDowns++
			}
			deadLink[ev.Link] = down
			if peer := n.topo.Peer(ev.Link.Switch, ev.Link.Port); !peer.IsHost && peer.ID >= 0 {
				deadLink[faults.LinkID{Switch: peer.ID, Port: peer.Port}] = down
			}
			// A cut host cable has no reverse LinkID; blocked() already
			// covers both directions through the forward entry.
		}

		// Sweep the registry in registration order (deterministic).
		for i, rf := range n.repairFlows {
			if !routeBroken(rf, routes[i]) {
				if broken[i] {
					// The fault's clearing revived the existing route; no
					// management action needed, the blackhole just ended.
					broken[i] = false
					ttr := ev.At - brokenAt[i]
					n.scheduleAvail(rf.host, ev.At, func(a *availShard) {
						a.restored++
						a.ttr.Add(ttr)
					})
				}
				continue
			}
			hops := topology.RepairPath(n.topo, rf.src, rf.dst, blocked)
			if hops == nil {
				if !broken[i] {
					broken[i] = true
					brokenAt[i] = ev.At
					n.scheduleAvail(rf.host, ev.At+delay, func(a *availShard) {
						a.unreachable++
					})
				}
				continue
			}
			newRoute := topology.Ports(hops)
			routes[i] = newRoute
			at := ev.At + delay
			wasBroken := broken[i]
			ttr := at - ev.At
			if wasBroken {
				broken[i] = false
				ttr = at - brokenAt[i]
			}
			rf := rf
			n.scheduleAvail(rf.host, at, func(a *availShard) {
				n.hosts[rf.host].Flow(rf.id).Route = newRoute
				if wasBroken {
					a.restored++
				} else {
					a.rerouted++
				}
				a.ttr.Add(ttr)
			})
		}
	}
	// Switches still dead at the horizon accrue downtime to the end of the
	// run (integer sum: map iteration order does not matter).
	for _, since := range downSince {
		av.Downtime += horizon - since
	}
}

// scheduleAvail schedules one repair action on host's shard engine,
// handing it the shard's availability counters.
func (n *Network) scheduleAvail(host int, at units.Time, fn func(a *availShard)) {
	sh := n.shards[n.hostShard[host]]
	sh.eng.At(at, func() { fn(sh.avail) })
}

// planEvents returns the plan's normalized events (nil-safe).
func planEvents(plan *faults.Plan) []faults.Event {
	if plan == nil {
		return nil
	}
	return plan.Normalized()
}

// buildAvailability merges the per-shard repair counters and the session
// manager's switch-failure results into Results.Availability. Called at
// the end of Run, after the session counters are merged.
func (n *Network) buildAvailability(res *Results) {
	if n.avail == nil {
		return
	}
	av := n.avail
	ttr := stats.NewHistogram()
	for _, sh := range n.shards {
		av.FlowsRerouted += sh.avail.rerouted
		av.FlowsRestored += sh.avail.restored
		av.FlowsUnreachable += sh.avail.unreachable
		ttr.Merge(sh.avail.ttr)
	}
	if s := res.Sessions; s != nil {
		av.SessionsRevoked = s.SwitchRevoked
		av.SessionsRerouted = s.SwitchRerouted
		av.SessionsDowngraded = s.SwitchDowngraded
		av.SessionsUnreachable = s.SwitchUnreachable
		ttr.Merge(n.shards[0].sess.RepairLatHist) // merged across shards by Run
	}
	av.RepairCount = ttr.Count()
	if ttr.Count() > 0 {
		av.RepairP50 = ttr.Quantile(0.50)
		av.RepairP99 = ttr.Quantile(0.99)
	}
	res.Availability = av
}

// AuditInvariants checks the structural invariants that must hold at any
// event boundary — switch buffer-pool accounting and link credit bounds —
// plus the admission ledger's exact balance. The soak harness calls it
// after every epoch; it is independent of the statistical results.
func (n *Network) AuditInvariants() error {
	for _, sw := range n.switches {
		if err := sw.Audit(); err != nil {
			return err
		}
	}
	for i, l := range n.links {
		for vc := 0; vc < packet.NumVCs; vc++ {
			if c := l.Credits(packet.VC(vc)); c < 0 || c > n.cfg.BufPerVC {
				return fmt.Errorf("network: link %d vc %d credit balance %v outside [0, %v]",
					i, vc, c, n.cfg.BufPerVC)
			}
		}
	}
	// Every CAC endpoint audits its own ledger. The root's is n.adm, which
	// without sessions books the static flows alone.
	if len(n.cacs) == 0 {
		if err := n.adm.AuditLedger(); err != nil {
			return err
		}
	}
	for _, cac := range n.cacs {
		if err := cac.AuditLedger(); err != nil {
			return fmt.Errorf("network: CAC on host %d: %w", cac.HostID(), err)
		}
	}
	// Control-plane liveness: no client may have a setup pending longer
	// than the protocol's worst case (retries, capped backoff, response
	// timeouts and queue-drain hints included). A session stuck past the
	// bound means a Grant/Reject was lost without the retry machinery
	// recovering it — e.g. Ctl packets discarded by a dying switch with no
	// timeout armed.
	if n.sessMgr != nil {
		bound := n.sessCfg.LivenessBound()
		now := n.eng.Now()
		for _, cl := range n.sessClients {
			if oldest, ok := cl.OldestPending(); ok && now-oldest > bound {
				return fmt.Errorf(
					"network: session liveness: host %d has a setup pending since %v (now %v, bound %v)",
					cl.HostID(), oldest, now, bound)
			}
		}
	}
	return nil
}
