// Package link models the point-to-point network links: serialisation at
// the link bandwidth, propagation delay, and credit-based flow control.
//
// High-performance interconnects never drop packets: a sender may only
// transmit when the downstream input buffer has guaranteed space, tracked
// through per-VC credits (§2.2). A Link is directed; a bidirectional cable
// is modelled as two Links. Credits are returned by the downstream element
// as its input buffer drains and travel back with the same propagation
// delay as data.
//
// Transfers are store-and-forward at packet granularity: the receiving
// element sees the packet once its last byte has arrived. This adds one
// serialisation delay per hop compared to the virtual cut-through some
// hardware implements, a constant offset that does not change any of the
// paper's comparisons (all four architectures pay it equally).
//
// Fault model (see internal/faults): a link can go down, be derated to
// a fraction of its nominal bandwidth, and corrupt packets in flight
// according to a per-link bit-error rate. A down link loses traffic the
// way a dead cable does: packets in flight at the transition are lost,
// and packets transmitted while down serialise normally but are
// discarded at the would-be arrival instant, with the credits they held
// restored to the sender in both cases (the downstream buffer never
// sees them). Crucially a down link never refuses transmission —
// refusing would let sustained traffic toward a dead destination
// head-of-line-block the upstream queues and, through credit
// backpressure, wedge the same VC across the whole fabric for the
// duration of the outage. Credit returns model an out-of-band control
// channel and keep working while the data path is down — flow-control
// state must survive a flap without leaking in either direction.
package link

import (
	"fmt"
	"math"

	"deadlineqos/internal/metrics"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

// Metrics bundles the link-level instruments of the metrics plane. All
// fields are optional: the zero value disables everything, and every
// instrument method is nil-safe, so the recording sites need no guards.
type Metrics struct {
	TxPackets *metrics.Counter // packets transmitted
	TxBytes   *metrics.Counter // bytes transmitted
	Dropped   *metrics.Counter // packets lost in flight to link-downs
	Corrupted *metrics.Counter // packets marked by the bit-error process
}

// Receiver consumes packets at the downstream end of a link.
type Receiver interface {
	// Receive is called when the last byte of p has arrived.
	Receive(p *packet.Packet)
}

// CreditReturner is what a downstream element holds to return credits to
// its upstream link as its input buffer drains. For an intra-shard link it
// is the *Link itself; for a link whose endpoints live on different parsim
// shards the network substitutes a portal that relays the credit update to
// the sender's engine with the same propagation delay and ordering
// channel, so both cases execute the identical event sequence.
type CreditReturner interface {
	ReturnCredits(vc packet.VC, size units.Size)
}

// Link is a directed link with credit-based flow control. The upstream
// element calls CanSend/Send; the downstream element calls ReturnCredits
// as its input buffers drain.
type Link struct {
	eng     *sim.Engine
	bw      units.Bandwidth
	nominal units.Bandwidth // construction bandwidth, the derating baseline
	prop    units.Time
	dst     Receiver

	busyUntil units.Time
	credits   [packet.NumVCs]units.Size
	capacity  units.Size // initial per-VC credits (credit-leak ceiling)

	// Ordering channels (see sim.Engine.AtChannel). The network layer
	// assigns every link a globally unique pair in construction order so
	// that same-cycle arrival and credit events sort identically on one
	// engine and across parsim shard engines. Zero (the default) keeps the
	// plain FIFO tie-break for directly built test links.
	pktCh    uint32
	creditCh uint32

	// Remote delivery (parsim cross-shard mode). When remoteDeliver is
	// non-nil the downstream element lives on another shard: arrivals are
	// relayed through it instead of being scheduled on the local engine,
	// and loss across link-down flaps is decided by the statically
	// precomputed lostBetween predicate (the receiver's shard cannot
	// observe this link's downEpoch). The local engine still runs the
	// sender-side bookkeeping event at the arrival instant and asserts
	// that the static decision matches the dynamic epoch state.
	remoteDeliver func(at units.Time, p *packet.Packet)
	lostBetween   func(sent, arrive units.Time) bool

	// OnReady is invoked (possibly repeatedly) whenever transmission
	// capacity appears: the link went idle, credits were returned, or a
	// downed link recovered. The upstream scheduler re-arbitrates in
	// response.
	OnReady func()
	// txDone is the end-of-serialisation event, bound once in New so a
	// send schedules it without allocating. It reads OnReady when it
	// fires.
	txDone func()

	// Fault state (see internal/faults). downEpoch increments on every
	// down transition; a packet is lost if it was transmitted while the
	// link was down, or if its send-time epoch differs at arrival (it was
	// in flight across a flap).
	down      bool
	downEpoch uint64
	ber       float64
	berRng    *xrand.Rand
	inFlight  uint64

	// OnDrop observes packets lost in flight to a link-down; OnCorrupt
	// observes packets marked corrupted by the bit-error process. Either
	// may be nil.
	OnDrop    func(p *packet.Packet)
	OnCorrupt func(p *packet.Packet)

	sent      uint64
	sentSize  units.Size
	dropped   uint64
	corrupted uint64
	busyAccum units.Time // cumulative serialisation time, for utilization probes

	mtr Metrics
}

// New returns a link into dst with the given bandwidth, propagation delay,
// and per-VC initial credits (the downstream input buffer capacity).
func New(eng *sim.Engine, bw units.Bandwidth, prop units.Time, creditsPerVC units.Size, dst Receiver) *Link {
	l := &Link{eng: eng, bw: bw, nominal: bw, prop: prop, dst: dst, capacity: creditsPerVC}
	for v := range l.credits {
		l.credits[v] = creditsPerVC
	}
	l.txDone = func() {
		if l.OnReady != nil {
			l.OnReady()
		}
	}
	return l
}

// Idle reports whether the link can start a new serialisation now.
func (l *Link) Idle() bool { return l.eng.Now() >= l.busyUntil }

// TxTime returns how long serialising p on this link takes. Senders use it
// to stamp the TTD header field as of the moment the last byte leaves (see
// packet.PackTTD): stamping at transmission start would inflate every
// reconstructed deadline by the size-dependent serialisation time, which
// breaks the within-flow deadline monotonicity the appendix's theorems
// (and hence in-order delivery) rest on.
func (l *Link) TxTime(p *packet.Packet) units.Time { return l.bw.TxTime(p.Size) }

// Credits returns the available credit bytes for vc.
func (l *Link) Credits(vc packet.VC) units.Size { return l.credits[vc] }

// CanSend reports whether p can be transmitted right now: the link is
// idle and the downstream buffer for p's VC has room. A down link still
// accepts transmissions — they are discarded at the would-be arrival
// (see the package fault-model notes). Per the paper's appendix, callers
// must only ever test the single packet their dequeue discipline
// designates — never "some other packet that happens to fit".
func (l *Link) CanSend(p *packet.Packet) bool {
	return l.Idle() && l.credits[p.VC] >= p.Size
}

// Send transmits p. It panics if CanSend is false: the caller's
// arbitration logic must have checked.
func (l *Link) Send(p *packet.Packet) {
	if !l.CanSend(p) {
		panic(fmt.Sprintf("link: Send without CanSend (down=%v idle=%v credits=%v pkt=%v)",
			l.down, l.Idle(), l.credits[p.VC], p))
	}
	l.credits[p.VC] -= p.Size
	tx := l.bw.TxTime(p.Size)
	l.busyUntil = l.eng.Now() + tx
	l.sent++
	l.sentSize += p.Size
	l.busyAccum += tx
	l.mtr.TxPackets.Inc()
	l.mtr.TxBytes.Add(uint64(p.Size))
	if l.ber > 0 && l.berRng.Float64() < CorruptionProb(l.ber, p.Size) && !p.Corrupted {
		p.Corrupted = true
		l.corrupted++
		l.mtr.Corrupted.Inc()
		if l.OnCorrupt != nil {
			l.OnCorrupt(p)
		}
	}
	// The link frees after serialisation; the packet lands prop later.
	l.eng.After(tx, l.txDone)
	sentDown := l.down
	epoch := l.downEpoch
	l.inFlight++
	arrive := l.eng.Now() + tx + l.prop

	if l.remoteDeliver != nil {
		// Cross-shard link: decide loss now from the static fault
		// timeline, hand the packet to the receiver's shard if it
		// survives, and keep the sender-side bookkeeping local.
		lost := sentDown || (l.lostBetween != nil && l.lostBetween(l.eng.Now(), arrive))
		if !lost {
			l.remoteDeliver(arrive, p)
		}
		l.eng.AtChannel(arrive, l.pktCh, func() {
			l.inFlight--
			if (sentDown || epoch != l.downEpoch) != lost {
				panic(fmt.Sprintf("link: static loss predicate %v disagrees with epoch state at %v",
					lost, l.eng.Now()))
			}
			if lost {
				l.dropped++
				l.mtr.Dropped.Inc()
				l.addCredits(p.VC, p.Size)
				if l.OnDrop != nil {
					l.OnDrop(p)
				}
				if l.OnReady != nil {
					l.OnReady()
				}
			}
		})
		return
	}

	l.eng.AtChannel(arrive, l.pktCh, func() {
		l.inFlight--
		if sentDown || epoch != l.downEpoch {
			// p was transmitted onto a down link, or the link flapped
			// while it was in flight: either way the packet is lost.
			// The downstream buffer never sees it, so the credits it held
			// are restored to the sender — flow control must balance
			// exactly across the flap.
			l.dropped++
			l.mtr.Dropped.Inc()
			l.addCredits(p.VC, p.Size)
			if l.OnDrop != nil {
				l.OnDrop(p)
			}
			if l.OnReady != nil {
				l.OnReady()
			}
			return
		}
		l.dst.Receive(p)
	})
}

// addCredits restores credits with the leak guard: credits above the
// construction capacity mean a double restore somewhere — a flow-control
// bug as fatal as a buffer overflow.
func (l *Link) addCredits(vc packet.VC, size units.Size) {
	l.credits[vc] += size
	if l.credits[vc] > l.capacity {
		panic(fmt.Sprintf("link: %v credits %v exceed capacity %v: credit leak",
			vc, l.credits[vc], l.capacity))
	}
}

// ReturnCredits is called by the downstream element when size bytes of its
// vc input buffer drain. The credit update reaches the sender after the
// reverse propagation delay. Credit returns model an out-of-band control
// channel: they keep flowing while the data path is down.
func (l *Link) ReturnCredits(vc packet.VC, size units.Size) {
	l.eng.AtChannel(l.eng.Now()+l.prop, l.creditCh, func() {
		l.ApplyCredits(vc, size)
	})
}

// ApplyCredits restores credits immediately and re-fires OnReady. It is
// the landing half of ReturnCredits, exported so a parsim credit portal
// can apply a relayed cross-shard credit update on the sender's engine.
func (l *Link) ApplyCredits(vc packet.VC, size units.Size) {
	l.addCredits(vc, size)
	if l.OnReady != nil {
		l.OnReady()
	}
}

// SetChannels assigns the link's ordering channels for arrival (pkt) and
// credit-return (credit) events. The network layer calls it once, right
// after construction, with globally unique ids; see sim.Engine.AtChannel.
func (l *Link) SetChannels(pkt, credit uint32) {
	l.pktCh = pkt
	l.creditCh = credit
}

// Channels returns the ordering channel pair assigned by SetChannels.
func (l *Link) Channels() (pkt, credit uint32) { return l.pktCh, l.creditCh }

// SetMetrics installs the link's metric instruments (the zero Metrics
// disables them). The network layer calls it once after construction,
// handing every link of a shard handles from that shard's metrics set.
func (l *Link) SetMetrics(m Metrics) { l.mtr = m }

// Prop returns the link's propagation delay (the parsim lookahead floor).
func (l *Link) Prop() units.Time { return l.prop }

// SetRemote puts the link in cross-shard delivery mode: arrivals are
// relayed through deliver (which must schedule dst.Receive on the
// receiver shard's engine at the given instant on this link's packet
// channel), and in-flight loss across down transitions is decided by the
// static predicate lost (nil means the link never goes down). See Send.
func (l *Link) SetRemote(deliver func(at units.Time, p *packet.Packet), lost func(sent, arrive units.Time) bool) {
	l.remoteDeliver = deliver
	l.lostBetween = lost
}

// SetDown transitions the link's up/down state and reports whether the
// state changed. Taking the link down loses every packet currently in
// flight and every packet transmitted before the link comes back up
// (their credits are restored as their would-be arrival events fire);
// bringing it up re-fires OnReady so any stalled arbitration resumes.
func (l *Link) SetDown(down bool) bool {
	if l.down == down {
		return false
	}
	l.down = down
	if down {
		l.downEpoch++
		return true
	}
	if l.OnReady != nil {
		l.OnReady()
	}
	return true
}

// Down reports whether the link is currently down.
func (l *Link) Down() bool { return l.down }

// Derate sets the link bandwidth to scale x the construction bandwidth
// (scale 1 restores nominal). It reports whether the bandwidth changed.
// In-progress serialisations keep their original timing; only future
// sends see the new rate.
func (l *Link) Derate(scale float64) bool {
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("link: derate scale %v out of (0,1]", scale))
	}
	bw := units.Bandwidth(float64(l.nominal) * scale)
	if bw == l.bw {
		return false
	}
	l.bw = bw
	return true
}

// SetBER sets the link's bit-error rate and the deterministic stream that
// draws corruption. ber 0 disables the process.
func (l *Link) SetBER(ber float64, rng *xrand.Rand) {
	if ber < 0 || ber >= 1 {
		panic(fmt.Sprintf("link: BER %v out of [0,1)", ber))
	}
	l.ber = ber
	l.berRng = rng
}

// CorruptionProb returns the probability that a packet of the given wire
// size is corrupted on a link with the given bit-error rate:
// 1 - (1-ber)^bits.
func CorruptionProb(ber float64, size units.Size) float64 {
	if ber <= 0 {
		return 0
	}
	return -math.Expm1(float64(8*size) * math.Log1p(-ber))
}

// InFlight returns the number of packets currently on the wire (sent, not
// yet arrived or lost) — part of the conservation accounting at stop.
func (l *Link) InFlight() uint64 { return l.inFlight }

// Dropped returns the number of packets lost in flight to link-downs.
func (l *Link) Dropped() uint64 { return l.dropped }

// Corrupted returns the number of packets the bit-error process marked.
func (l *Link) Corrupted() uint64 { return l.corrupted }

// Sent returns the packet and byte counts transmitted so far.
func (l *Link) Sent() (packets uint64, bytes units.Size) { return l.sent, l.sentSize }

// TxBusyTime returns the cumulative time spent serialising packets. The
// telemetry probes difference it across an interval to compute link
// utilization (serialisation time is charged at Send, so a probe landing
// mid-serialisation attributes the whole packet to that interval).
func (l *Link) TxBusyTime() units.Time { return l.busyAccum }
