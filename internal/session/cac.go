package session

import (
	"sort"

	"deadlineqos/internal/admission"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// record is a CAC endpoint's entry for one granted session. A standby
// delegate keeps its replica of the primary's grants in the same type.
type record struct {
	src, dst int
	bw       units.Bandwidth
	class    packet.Class
	route    []int
	handle   admission.FlowHandle
	reserved bool // false for best-effort grants (no ledger entry)
}

// newRecord returns the record of setup m granted over route; regulated
// classes hold a reservation, whose route and handle booking fills in.
func newRecord(m *Msg, route []int) *record {
	return &record{src: m.Src, dst: m.Dst, bw: m.BW, class: m.Class,
		route: route, reserved: m.Class.Regulated()}
}

// ctlQueue models a CAC host's bounded control queue: each setup costs
// service time to process, and arrivals beyond cap are shed instead of
// queueing without bound. All state lives on the owning CAC's shard, so
// the queue's decisions are identical at any shard count.
type ctlQueue struct {
	eng       *sim.Engine
	service   units.Time
	cap       int
	depth     int
	busyUntil units.Time
}

// newCtlQueue returns a queue for the config, or nil when the model is
// disabled (CtlService 0): a nil queue serves everything at delivery.
func newCtlQueue(eng *sim.Engine, cfg *Config) *ctlQueue {
	if cfg.CtlService <= 0 {
		return nil
	}
	return &ctlQueue{eng: eng, service: cfg.CtlService, cap: cfg.CtlQueueCap}
}

// enqueue runs fn after the queued service delay. When the queue is full
// it reports shed, with the drain-time hint the reject should carry
// (bounded by (cap+1) x service, which the liveness bound relies on).
func (q *ctlQueue) enqueue(fn func()) (hint units.Time, ok bool) {
	now := q.eng.Now()
	if q.busyUntil < now {
		q.busyUntil = now
	}
	if q.depth >= q.cap {
		return q.busyUntil + q.service - now, false
	}
	q.depth++
	q.busyUntil += q.service
	q.eng.At(q.busyUntil, func() {
		q.depth--
		fn()
	})
	return 0, true
}

// Depth returns the current queue occupancy (telemetry); nil-safe.
func (q *ctlQueue) Depth() int {
	if q == nil {
		return 0
	}
	return q.depth
}

// cac is the admission bookkeeping every CAC endpoint shares. The root
// Manager embeds one over the network's controller, each pod Delegate one
// over its lease ledger. It owns the session table, the reserved-bandwidth
// integral, the control-queue shed path, teardown release, derate
// revocation, the switch/port repair ladder and the entity's telemetry
// counters. All of it runs in events on the endpoint host's engine — a
// single writer — so every ledger float sequence and every message order
// is identical at any shard count.
//
// The role hooks are where the endpoints differ: reply answers a client
// (the root on its down flows, a delegate on its pod flows or loopback),
// and a primary delegate's sync and unsync mirror each record change or
// removal to its standby (no-ops elsewhere). The core calls them at fixed
// points, always mirroring before it answers the client.
type cac struct {
	host *hostif.Host
	eng  *sim.Engine
	cnt  *Counters // the owning shard's counter instance
	adm  *admission.Controller
	// pod is the entity's leaf switch, -1 for the root. Delegate grants
	// are flagged Local.
	pod int
	// active gates revocation and repair: the root is always active, a
	// delegate only while it holds the pod's lease.
	active bool

	sessions map[uint64]*record
	byHandle map[admission.FlowHandle]uint64
	queue    *ctlQueue // nil when the queue model is off

	reply        func(dst int, msg *Msg)
	sync, unsync func(id uint64)

	// Per-entity cumulative counters for the telemetry rows (the shard
	// Counters mix every entity of a shard, so their composition varies
	// with the shard layout).
	acc, rej, rev, shed uint64

	// Reserved-bandwidth integral over [warmUp, horizon]: cur is the sum
	// of currently reserved session bandwidth, integrated piecewise at
	// every change; the Manager's BuildResults sums the entities in a
	// fixed order.
	warmUp, horizon units.Time
	cur             float64
	lastT           units.Time
	integral        float64
	finalized       bool
}

// newCAC returns the core of the endpoint on host, keeping its books in
// adm; pod is -1 for the root.
func newCAC(host *hostif.Host, eng *sim.Engine, cfg *Config, cnt *Counters,
	adm *admission.Controller, pod int, warmUp, horizon units.Time) cac {
	return cac{
		host: host, eng: eng, cnt: cnt, adm: adm, pod: pod, active: pod < 0,
		sessions: make(map[uint64]*record), byHandle: make(map[admission.FlowHandle]uint64),
		queue: newCtlQueue(eng, cfg), warmUp: warmUp, horizon: horizon,
		sync: func(uint64) {}, unsync: func(uint64) {},
	}
}

// HostID returns the endpoint's host index.
func (c *cac) HostID() int { return c.host.ID() }

// ActiveSessions returns the number of granted, not-yet-released sessions
// (telemetry).
func (c *cac) ActiveSessions() int { return len(c.sessions) }

// AuditLedger exposes the endpoint ledger's balance audit (soak
// invariants).
func (c *cac) AuditLedger() error { return c.adm.AuditLedger() }

// Sample returns the endpoint's telemetry row at probe time t.
func (c *cac) Sample(t units.Time) trace.SessionSample {
	return trace.SessionSample{
		T: t, Pod: c.pod, Host: c.host.ID(),
		Active: len(c.sessions), ReservedBW: c.cur,
		Accepted: c.acc, Rejected: c.rej, Revoked: c.rev,
		QueueDepth: c.queue.Depth(), Shed: c.shed,
	}
}

// advanceTo integrates the current reserved bandwidth up to now, clipped
// to the measurement window.
func (c *cac) advanceTo(now units.Time) {
	lo, hi := c.lastT, now
	if lo < c.warmUp {
		lo = c.warmUp
	}
	if hi > c.horizon {
		hi = c.horizon
	}
	if hi > lo {
		c.integral += c.cur * float64(hi-lo)
	}
	c.lastT = now
}

// addReserved applies a reservation change at the current event time.
func (c *cac) addReserved(delta units.Bandwidth) {
	c.advanceTo(c.eng.Now())
	c.cur += float64(delta)
}

// finishIntegral closes the integral at the horizon and returns it
// (called by the Manager's BuildResults, after the run).
func (c *cac) finishIntegral() float64 {
	if !c.finalized {
		c.advanceTo(c.horizon)
		c.finalized = true
	}
	return c.integral
}

// serve runs setup m through the bounded control queue, or at once
// without one. A full queue sheds it with a drain-time hint the client
// folds into its backoff.
func (c *cac) serve(m *Msg, setup func(*Msg)) {
	if c.queue == nil {
		setup(m)
		return
	}
	if hint, ok := c.queue.enqueue(func() { setup(m) }); !ok {
		c.cnt.Shed++
		c.cnt.Mtr.Shed.Inc()
		c.shed++
		c.reply(m.Src, &Msg{Op: OpReject, Session: m.Session, Attempt: m.Attempt, RetryAfter: hint})
	}
}

// regrant answers a retried Setup whose grant is still in flight (or was
// lost) idempotently — the client ignores duplicates — and reports
// whether the session was known.
func (c *cac) regrant(m *Msg) bool {
	s := c.sessions[m.Session]
	if s == nil {
		return false
	}
	c.cnt.DupSetups++
	c.reply(m.Src, &Msg{Op: OpGrant, Session: m.Session, Route: s.route, Local: c.pod >= 0})
	return true
}

// grant records an admitted session, counts it and answers the client.
func (c *cac) grant(m *Msg, s *record) {
	c.sessions[m.Session] = s
	c.cnt.Accepted++
	c.cnt.Mtr.Accepted.Inc()
	c.acc++
	c.sync(m.Session)
	c.reply(m.Src, &Msg{Op: OpGrant, Session: m.Session, Route: s.route, Local: c.pod >= 0})
}

// release frees one session at its client's teardown. It reports false,
// counting a stale teardown, when the record is already gone: the session
// was revoke-downgraded after a fault and its bandwidth already released.
func (c *cac) release(id uint64) bool {
	s := c.sessions[id]
	if s == nil {
		c.cnt.StaleTeardowns++
		return false
	}
	if s.reserved {
		c.unbook(s)
	}
	delete(c.sessions, id)
	c.cnt.Released++
	c.cnt.Mtr.Released.Inc()
	c.unsync(id)
	return true
}

// unbook removes a reservation from the ledger and the integral.
func (c *cac) unbook(s *record) {
	c.adm.Release(s.handle)
	delete(c.byHandle, s.handle)
	c.addReserved(-s.bw)
}

// book reserves session id's bandwidth over a path with room, reporting
// whether one fits; on success the record holds the new route and handle.
func (c *cac) book(id uint64, s *record) bool {
	route, h, err := c.adm.Reserve(s.src, s.dst, s.bw)
	if err != nil {
		return false
	}
	s.handle, s.route = h, route
	c.byHandle[h] = id
	c.addReserved(s.bw)
	return true
}

// revoked unbooks a reservation a fault took away and counts it.
func (c *cac) revoked(s *record) {
	c.unbook(s)
	c.cnt.Revoked++
	c.cnt.Mtr.Revoked.Inc()
	c.rev++
}

// moved tells session id's client its route changed.
func (c *cac) moved(id uint64, s *record, downAt units.Time) {
	c.sync(id)
	c.reply(s.src, &Msg{Op: OpRevoke, Session: id, Route: s.route, DownAt: downAt})
}

// abandon drops session id and tells its client to continue best effort,
// over route when one survives (nil: keep the old one, or unreachable).
func (c *cac) abandon(id uint64, s *record, route []int, downAt units.Time) {
	delete(c.sessions, id)
	c.unsync(id)
	c.reply(s.src, &Msg{Op: OpRevoke, Session: id, Downgrade: true, Route: route, DownAt: downAt})
}

// OnLinkDerated applies a fault-plan capacity change to the ledger and
// revokes session reservations until the link's reserved load fits its
// new limit. Victims are the most recently admitted sessions on the link
// (static provisioned flows are never revoked); each is re-admitted over
// surviving paths when possible, otherwise its client is told to continue
// best effort. The network schedules this on the endpoint's shard
// RevokeDelay after the fault event.
func (c *cac) OnLinkDerated(sw, port int, scale float64) {
	c.adm.DerateLink(sw, port, scale)
	if scale >= 1 || !c.active {
		return // restored capacity: nothing to revoke
	}
	for c.adm.Reserved(sw, port) > c.adm.LinkLimit(sw, port) {
		handles := c.adm.HandlesOn(sw, port)
		victim := uint64(0)
		found := false
		for i := len(handles) - 1; i >= 0; i-- {
			if id, ok := c.byHandle[handles[i]]; ok {
				victim, found = id, true
				break
			}
		}
		if !found {
			return // only static reservations remain above the limit
		}
		c.revoke(victim)
	}
}

// revoke tears one session's reservation out of the ledger and either
// re-admits it over surviving paths or downgrades it (derate path).
func (c *cac) revoke(id uint64) {
	s := c.sessions[id]
	c.revoked(s)
	if !c.book(id, s) {
		c.cnt.RevokeDowngrades++
		c.abandon(id, s, nil, 0)
		return
	}
	c.cnt.Rerouted++
	c.moved(id, s, 0)
}

// OnSwitchDown marks a whole switch dead in the ledger and repairs every
// session whose route the failure strands. downAt is the fault's event
// time (carried to clients for time-to-repair telemetry). The network
// schedules this on the endpoint's shard RevokeDelay after the fault.
func (c *cac) OnSwitchDown(sw int, downAt units.Time) {
	c.adm.SetSwitchDown(sw, true)
	c.repairStranded(downAt)
}

// OnSwitchUp clears a switch's dead marking. Already-repaired sessions
// keep their detour routes; new admissions may use the switch again.
func (c *cac) OnSwitchUp(sw int) { c.adm.SetSwitchDown(sw, false) }

// OnPortDown marks both directions of one cable dead and repairs the
// sessions it strands.
func (c *cac) OnPortDown(sw, port int, downAt units.Time) {
	c.adm.SetPortDown(sw, port, true)
	c.repairStranded(downAt)
}

// OnPortUp clears a cable's dead marking.
func (c *cac) OnPortUp(sw, port int) { c.adm.SetPortDown(sw, port, false) }

// repairStranded sweeps the session table for routes that now cross dead
// fabric and repairs each: reroute-or-revoke for reservations, repair-or-
// abandon for best-effort grants. Victims are processed in ascending
// session-id order — map iteration order is not deterministic, the repair
// order (and thus the ledger's float sequence) must be.
func (c *cac) repairStranded(downAt units.Time) {
	if !c.active {
		return
	}
	var victims []uint64
	for id, s := range c.sessions {
		if c.adm.RouteDead(s.src, s.route) {
			victims = append(victims, id)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	for _, id := range victims {
		c.cnt.SwitchRevoked++
		c.revokeFault(id, downAt)
	}
}

// revokeFault repairs one session stranded by a switch or port failure.
// Unlike revoke (derates), the session may be a best-effort grant with no
// ledger entry, and the host pair may be partitioned outright.
func (c *cac) revokeFault(id uint64, downAt units.Time) {
	s := c.sessions[id]
	if !s.reserved {
		// Best-effort grant: just hand the client a repaired route, or tell
		// it the pair is partitioned (it keeps transmitting into the void;
		// the conservation ledger accounts the drops).
		if route := c.adm.RepairRoute(s.src, s.dst); route != nil {
			s.route = route
			c.cnt.SwitchRerouted++
			c.moved(id, s, downAt)
			return
		}
		c.cnt.SwitchUnreachable++
		c.abandon(id, s, nil, downAt)
		return
	}
	c.revoked(s)
	if c.book(id, s) {
		c.cnt.Rerouted++
		c.cnt.SwitchRerouted++
		c.moved(id, s, downAt)
		return
	}
	// No re-admission: downgrade to best effort over a repaired route when
	// one exists, or report the pair unreachable.
	c.cnt.RevokeDowngrades++
	route := c.adm.RepairRoute(s.src, s.dst)
	if route != nil {
		c.cnt.SwitchDowngraded++
	} else {
		c.cnt.SwitchUnreachable++
	}
	c.abandon(id, s, route, downAt)
}
