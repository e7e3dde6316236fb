package session

import (
	"fmt"
	"sort"

	"deadlineqos/internal/admission"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// DelegateConfig wires one pod delegate CAC into its host's shard.
type DelegateConfig struct {
	Host *hostif.Host
	Eng  *sim.Engine // the engine of the shard owning Host
	Cfg  Config      // defaulted and validated
	Cnt  *Counters   // the owning shard's counter instance
	Pod  Pod
	// Standby marks the pod's standby instance: passive (replica
	// maintenance and escalation only) until the root promotes it.
	Standby bool
	Topo    topology.Topology
	LinkBW  units.Bandwidth
	RouteBE func(src, dst int, key uint64) []int
	// WarmUp and Horizon bound the reserved-bandwidth integral window.
	WarmUp, Horizon units.Time
}

// Delegate is a per-pod CAC endpoint. The primary holds a revocable
// capacity lease over the pod's host links — its own admission.Controller
// whose maxUtil IS the lease fraction — and admits intra-pod setups one
// hop away, escalating everything else to the root. The standby mirrors
// the primary's grants and takes over the lease when the root promotes it
// after a fault kills the primary's attachment. All delegate work happens
// in events on the owning host's engine. The session table, revocation
// and repair are the shared cac core's; the delegate-only parts are
// escalation, the breaker, lease growth and return, replica sync and
// promotion.
type Delegate struct {
	cac
	c      DelegateConfig
	syncTo int // standby host mirrored by this primary, -1 = none

	frac        float64 // current lease fraction (0 until granted)
	leaseWanted bool    // an OpLeaseRequest is outstanding

	// Root-failure detector (DESIGN.md §12): the lease-renewal heartbeat
	// doubles as a liveness probe. When renewal acks stop, the delegate
	// opens its escalation breaker (rootDark) and answers inter-pod
	// setups with a local reject instead of injecting them towards a
	// dead root — sustained traffic to a dead host tree-saturates the
	// Control VC and would starve pod-local admission too.
	renewArmed bool       // heartbeat self-scheduling started
	lastAck    units.Time // last time the root was heard from
	rootDark   bool       // escalation breaker open

	rep map[uint64]*record // standby replica of the primary's grants

	// loop delivers a message to the co-located client without touching
	// the fabric (set by Dispatch; a CAC host is its own one-hop target).
	loop func(*Msg)
}

// NewDelegate returns the delegate endpoint for dc.Host.
func NewDelegate(dc DelegateConfig) (*Delegate, error) {
	adm, err := admission.New(dc.Topo, dc.LinkBW, dc.Cfg.LeaseFrac)
	if err != nil {
		return nil, fmt.Errorf("session: delegate ledger: %w", err)
	}
	d := &Delegate{c: dc, syncTo: -1, rep: make(map[uint64]*record)}
	d.cac = newCAC(dc.Host, dc.Eng, &dc.Cfg, dc.Cnt, adm, dc.Pod.Leaf, dc.WarmUp, dc.Horizon)
	d.reply = d.replyPod
	if !dc.Standby && dc.Pod.Standby >= 0 {
		d.syncTo = dc.Pod.Standby
		d.sync, d.unsync = d.syncGrant, d.syncRelease
	}
	return d, nil
}

// Sample returns the delegate's telemetry row at probe time t: the core's
// row plus the lease state.
func (d *Delegate) Sample(t units.Time) trace.SessionSample {
	s := d.cac.Sample(t)
	s.LeaseFrac = d.frac
	if d.active {
		s.LeaseUtil = d.adm.UtilOfLimit()
	}
	return s
}

// replyPod sends an in-band message to pod client host dst on this
// delegate's own down flow family. A message to the delegate's own host —
// a promoted standby serving its co-located client — is delivered
// zero-hop through the dispatcher's loopback instead of the fabric.
func (d *Delegate) replyPod(dst int, msg *Msg) {
	if dst == d.HostID() {
		if d.loop != nil {
			d.loop(msg)
		}
		return
	}
	flow := SigPodDown(dst)
	if d.c.Standby {
		flow = SigPodAltDown(dst)
	}
	d.host.SubmitCtl(flow, d.c.Cfg.SigMsgSize, msg)
}

// toRoot sends an in-band message to the root CAC on the host's shared
// up flow.
func (d *Delegate) toRoot(msg *Msg) {
	d.host.SubmitCtl(SigUp(d.HostID()), d.c.Cfg.SigMsgSize, msg)
}

// podLocal reports whether both hosts attach to this delegate's leaf.
func (d *Delegate) podLocal(a, b int) bool {
	la, _ := d.c.Topo.HostPort(a)
	lb, _ := d.c.Topo.HostPort(b)
	return la == d.c.Pod.Leaf && lb == d.c.Pod.Leaf
}

// HandleMsg serves one control message addressed to the delegate role
// (the host's dispatcher routes opcodes between delegate and client).
func (d *Delegate) HandleMsg(m *Msg) {
	switch m.Op {
	case OpSetup:
		d.serve(m, d.serveSetup)
	case OpTeardown:
		d.handleTeardown(m)
	case OpLeaseGrant:
		d.onLeaseGrant(m.Frac)
	case OpPromote:
		d.onPromote(m)
	case OpSyncGrant:
		d.rep[m.Session] = newRecord(m, m.Route)
	case OpSyncRelease:
		delete(d.rep, m.Session)
	default:
		panic(fmt.Sprintf("session: delegate %d received %v", d.HostID(), m.Op))
	}
}

// serveSetup admits, replays, or escalates one setup.
func (d *Delegate) serveSetup(m *Msg) {
	if d.regrant(m) {
		return
	}
	if r := d.rep[m.Session]; r != nil {
		// Idempotent replay from the replica: the client re-sent a setup
		// the failed primary had granted; honour the original grant.
		d.cnt.FailoverReplays++
		d.reply(m.Src, &Msg{Op: OpGrant, Session: m.Session, Route: r.route, Local: true})
		return
	}
	if !d.active {
		d.escalate(m)
		return
	}
	if !m.Class.Regulated() {
		// Best-effort sessions need no reservation, only a fixed hashed
		// route; the delegate grants them locally wherever they go.
		d.grantLocal(m, newRecord(m, d.c.RouteBE(m.Src, m.Dst, m.Session)))
		return
	}
	if !d.podLocal(m.Src, m.Dst) {
		// Inter-pod reservations are the root's to arbitrate.
		d.escalate(m)
		return
	}
	s := newRecord(m, nil)
	if !d.book(m.Session, s) {
		// Lease exhausted (or pod fabric dead): ask the root to grow
		// the lease and let it arbitrate this setup meanwhile.
		d.requestLease()
		d.escalate(m)
		return
	}
	d.grantLocal(m, s)
}

// grantLocal grants one setup within the lease, counting it as local.
func (d *Delegate) grantLocal(m *Msg, s *record) {
	d.cnt.LocalGrants++
	d.cnt.Mtr.LocalGrants.Inc()
	d.grant(m, s)
}

// escalate forwards a setup to the root CAC, which replies to the client
// directly — unless the breaker is open, in which case the delegate
// answers here: rejects keep the client's retries pod-local, and the
// retry budget then downgrades the session without ever feeding the
// blackhole towards the dead root.
func (d *Delegate) escalate(m *Msg) {
	if d.rootDark {
		d.cnt.BreakerRejects++
		d.reply(m.Src, &Msg{Op: OpReject, Session: m.Session, Attempt: m.Attempt,
			RetryAfter: d.c.Cfg.LeaseRenew})
		return
	}
	d.cnt.Escalated++
	d.cnt.Mtr.Escalated.Inc()
	d.toRoot(m)
}

// syncGrant replicates one session record to the standby (primaries
// only).
func (d *Delegate) syncGrant(id uint64) {
	s := d.sessions[id]
	d.host.SubmitCtl(SigPodDown(d.syncTo), d.c.Cfg.SigMsgSize, &Msg{
		Op: OpSyncGrant, Session: id, Src: s.src, Dst: s.dst,
		BW: s.bw, Class: s.class, Route: s.route,
	})
}

// syncRelease withdraws one replicated record from the standby.
func (d *Delegate) syncRelease(id uint64) {
	d.host.SubmitCtl(SigPodDown(d.syncTo), d.c.Cfg.SigMsgSize, &Msg{
		Op: OpSyncRelease, Session: id,
	})
}

// requestLease asks the root to grow the lease by one step, at most one
// request in flight.
func (d *Delegate) requestLease() {
	want := d.frac + d.c.Cfg.LeaseStep
	if d.leaseWanted || d.rootDark || want > MaxLeaseFrac+1e-9 {
		return
	}
	d.leaseWanted = true
	d.cnt.LeaseRequests++
	d.toRoot(&Msg{Op: OpLeaseRequest, Src: d.HostID(), Frac: want})
}

// onLeaseGrant installs a granted (or re-affirmed) lease fraction and
// activates the delegate. Every grant — including renewal acks — counts
// as proof of root liveness, closing the breaker and arming the
// heartbeat on first contact. A zero fraction is an eviction: the root
// no longer considers this instance the pod's CAC (demoted or reclaimed
// while unreachable), so it stops admitting and lets its ledger drain
// through ordinary teardowns.
func (d *Delegate) onLeaseGrant(frac float64) {
	d.leaseWanted = false
	d.lastAck = d.eng.Now()
	d.rootDark = false
	if !d.renewArmed {
		d.renewArmed = true
		d.eng.After(d.c.Cfg.LeaseRenew, d.renewTick)
	}
	if frac <= 0 {
		d.frac = 0
		d.active = false
		return
	}
	d.frac = frac
	d.adm.SetMaxUtil(frac)
	d.active = true
}

// renewTick emits the periodic lease-renewal heartbeat and runs the
// failure detector: a silent root for more than one full renewal period
// beyond the last ack (two unanswered heartbeats) opens the breaker.
func (d *Delegate) renewTick() {
	now := d.eng.Now()
	if !d.rootDark && now-d.lastAck > 2*d.c.Cfg.LeaseRenew {
		d.rootDark = true
		d.cnt.BreakerOpens++
	}
	d.toRoot(&Msg{Op: OpLeaseRenew, Src: d.HostID()})
	d.eng.After(d.c.Cfg.LeaseRenew, d.renewTick)
}

// onPromote makes a passive standby the pod's CAC: it takes over the
// lease and reconciles its ledger from the replica, restoring every
// surviving grant in ascending session order (idempotent, deterministic).
func (d *Delegate) onPromote(m *Msg) {
	if d.active {
		return
	}
	d.onLeaseGrant(m.Frac)
	ids := make([]uint64, 0, len(d.rep))
	for id := range d.rep {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := d.rep[id]
		if s.reserved {
			s.handle = d.adm.Restore(s.src, s.route, s.bw)
			d.byHandle[s.handle] = id
			d.addReserved(s.bw)
		}
		d.sessions[id] = s
	}
	d.rep = make(map[uint64]*record)
	d.cnt.Promotions++
	if m.DownAt > 0 {
		d.cnt.FailoverHist.Add(d.eng.Now() - m.DownAt)
	}
}

// handleTeardown releases one locally granted session, and returns the
// grown lease share once the pod has drained.
func (d *Delegate) handleTeardown(m *Msg) {
	if !d.release(m.Session) {
		// Either revoke-downgraded after a fault, or a replica-only record
		// whose grantor died: drop any replica so a later promotion does
		// not resurrect the reservation.
		delete(d.rep, m.Session)
		return
	}
	if d.active && !d.rootDark && d.adm.ActiveFlows() == 0 && d.frac > d.c.Cfg.LeaseFrac+1e-9 {
		d.frac = d.c.Cfg.LeaseFrac
		d.adm.SetMaxUtil(d.frac)
		d.cnt.LeaseReturns++
		d.toRoot(&Msg{Op: OpLeaseReturn, Src: d.HostID(), Frac: d.frac})
	}
}

// Dispatch returns the Ctl handler for a host running both a session
// client and a delegate CAC, routing each opcode to its role: setups,
// teardowns and the delegate protocol to the delegate, client-bound
// replies (grants, rejects, revokes, retargets) to the client.
func Dispatch(cl *Client, d *Delegate) func(*packet.Packet) {
	d.loop = cl.handleMsg
	return func(p *packet.Packet) {
		m, ok := p.Ctl.(*Msg)
		if !ok {
			panic(fmt.Sprintf("session: host %d received foreign control payload %T", d.HostID(), p.Ctl))
		}
		switch m.Op {
		case OpSetup, OpTeardown, OpLeaseGrant, OpPromote, OpSyncGrant, OpSyncRelease:
			d.HandleMsg(m)
		default:
			cl.HandleCtl(p)
		}
	}
}
