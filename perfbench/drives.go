package main

import (
	"time"

	"deadlineqos/internal/admission"
	"deadlineqos/internal/link"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/parsim"
	"deadlineqos/internal/police"
	"deadlineqos/internal/pqueue"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/stats"
	"deadlineqos/internal/topology"
	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

// The isolated drives call one layer's public API in a loop, outside any
// simulation, at the operating point a timed run of the workload
// reported (pending-set size, buffer occupancy, active flows). Each
// records spans — one per batch of calls — and reports the median span's
// host nanoseconds per call.

// spans times batches of calls until budget is spent (at least three
// batches) and returns the median ns per call. batch runs one batch and
// returns how many calls it made.
func spans(budget time.Duration, batch func() int) float64 {
	var perCall []float64
	start := time.Now()
	for len(perCall) < 3 || time.Since(start) < budget {
		t0 := time.Now()
		n := batch()
		d := time.Since(t0)
		if n > 0 {
			perCall = append(perCall, float64(d.Nanoseconds())/float64(n))
		}
	}
	return median(perCall)
}

// driveEngine measures sim.Engine.At plus the event's firing with the
// heap held at pending events. Delays are uniform over twice the mean
// event residence time the run showed, so the heap's shape matches too.
func driveEngine(budget time.Duration, pending int, meanDelay units.Time, seed uint64) float64 {
	if pending < 1 {
		pending = 1
	}
	if meanDelay < 1 {
		meanDelay = 1
	}
	rng := xrand.New(seed)
	delays := make([]units.Time, 4096)
	for i := range delays {
		delays[i] = units.Time(rng.UniformInt(1, int64(2*meanDelay)))
	}
	eng := sim.New()
	next := 0
	var fire func()
	fire = func() {
		eng.After(delays[next&4095], fire)
		next++
	}
	for i := 0; i < pending; i++ {
		eng.At(delays[i&4095], fire)
	}
	// One batch advances the clock far enough for ~20k firings.
	step := units.Time(20000) * meanDelay / units.Time(pending)
	if step < 1 {
		step = 1
	}
	return spans(budget, func() int {
		before := eng.Fired()
		eng.Run(eng.Now() + step)
		return int(eng.Fired() - before)
	})
}

// drivePackets returns the packet mix the drives feed the layers:
// sizes uniform up to the MTU, flows and classes round-robin.
func drivePackets(n int, mtu units.Size, rng *xrand.Rand) []*packet.Packet {
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		pkts[i] = &packet.Packet{
			ID:    uint64(i + 1),
			Flow:  packet.FlowID(i % 64),
			Class: packet.Class(i % packet.NumClasses),
			VC:    packet.VC(i % 2),
			Size:  units.Size(rng.UniformInt(int64(packet.HeaderSize)+1, int64(mtu))),
		}
	}
	return pkts
}

// driveQueue measures one Push plus one Pop on a switch buffer of the
// given discipline held at occupancy packets, with deadlines spread over
// the horizon a packet spends in a buffer.
func driveQueue(budget time.Duration, d pqueue.Discipline, occupancy int, mtu units.Size, seed uint64) float64 {
	if occupancy < 1 {
		occupancy = 1
	}
	rng := xrand.New(seed)
	pkts := drivePackets(occupancy+1, mtu, rng)
	buf := pqueue.New(d, units.Size(occupancy+2)*mtu, false)
	var now units.Time
	const spread = 20 * units.Microsecond
	jitter := make([]units.Time, 4096)
	for i := range jitter {
		jitter[i] = units.Time(rng.UniformInt(0, int64(spread)))
	}
	for i := 0; i < occupancy; i++ {
		pkts[i].Deadline = jitter[i&4095]
		buf.Push(pkts[i])
	}
	spare := pkts[occupancy]
	k := 0
	const batch = 10000
	return spans(budget, func() int {
		for i := 0; i < batch; i++ {
			now += 10
			spare.Deadline = now + jitter[k&4095]
			k++
			buf.Push(spare)
			spare = buf.Pop()
		}
		return batch
	})
}

// creditSink is the downstream end of the link drive: it frees buffer
// space (returns credits) as soon as a packet lands.
type creditSink struct{ l *link.Link }

func (s *creditSink) Receive(p *packet.Packet) { s.l.ReturnCredits(p.VC, p.Size) }

// driveLink measures link.Send with the flow-control round trip it
// causes: serialisation and arrival events, the receiver's credit return,
// and the sender's OnReady. Credits per VC are the switch buffer size.
func driveLink(budget time.Duration, bw units.Bandwidth, prop units.Time, credits, mtu units.Size, seed uint64) float64 {
	rng := xrand.New(seed)
	pkts := drivePackets(1024, mtu, rng)
	eng := sim.New()
	sink := &creditSink{}
	l := link.New(eng, bw, prop, credits, sink)
	sink.l = l
	next := 0
	var sends int
	try := func() {
		for {
			p := pkts[next&1023]
			if !l.CanSend(p) {
				return
			}
			l.Send(p)
			next++
			sends++
		}
	}
	l.OnReady = try
	return spans(budget, func() int {
		before := sends
		try()
		eng.Run(eng.Now() + 200*units.Microsecond)
		return sends - before
	})
}

// drivePolice measures police.Policer.Check on one flow offered at 10%
// above its reserved rate, so the rate test both passes and demotes.
func drivePolice(budget time.Duration, rate units.Bandwidth, burst, mtu units.Size, seed uint64) float64 {
	rng := xrand.New(seed)
	pkts := drivePackets(1024, mtu, rng)
	pol := police.New(rate, burst)
	var now units.Time
	k := 0
	const batch = 20000
	return spans(budget, func() int {
		for i := 0; i < batch; i++ {
			p := pkts[k&1023]
			k++
			now += units.Time(float64(rate.TxTime(p.Size)) / 1.1)
			pol.Check(now, p.Size, now+rate.TxTime(p.Size)+units.Millisecond)
		}
		return batch
	})
}

// driveStats measures stats.Collector.PacketDelivered on the Table 1
// class mix, multimedia packets assembling into multi-part frames.
func driveStats(budget time.Duration, hosts int, bw units.Bandwidth, mtu units.Size, seed uint64) float64 {
	rng := xrand.New(seed)
	pkts := drivePackets(1024, mtu, rng)
	c := stats.NewCollector(hosts, bw, 0, 1<<62)
	const parts = 12
	var now units.Time
	frame := uint64(0)
	k := 0
	lat := make([]units.Time, 4096)
	for i := range lat {
		lat[i] = units.Time(rng.UniformInt(1, int64(50*units.Microsecond)))
	}
	const batch = 20000
	return spans(budget, func() int {
		for i := 0; i < batch; i++ {
			p := pkts[k&1023]
			now += 10
			p.CreatedAt = now
			p.Src, p.Dst = k%hosts, (k+1)%hosts
			p.TTD = 20*units.Microsecond - lat[k&4095]
			p.FrameID, p.FrameParts = 0, 0
			if p.Class == packet.Multimedia {
				p.FrameID, p.FrameParts = frame/parts+1, parts
				frame++
			}
			c.PacketDelivered(p, now+lat[k&4095])
			k++
		}
		return batch
	})
}

// driveAdmission measures admission.Controller.Reserve plus Release on
// the workload's topology with active flows already admitted.
func driveAdmission(budget time.Duration, topo topology.Topology, bw units.Bandwidth, active int, seed uint64) (float64, error) {
	adm, err := admission.New(topo, bw, 1.0)
	if err != nil {
		return 0, err
	}
	rng := xrand.New(seed)
	hosts := topo.Hosts()
	pair := func() (int, int) {
		src := int(rng.UniformInt(0, int64(hosts-1)))
		dst := int(rng.UniformInt(0, int64(hosts-2)))
		if dst >= src {
			dst++
		}
		return src, dst
	}
	// Background flows small enough that the ledger never fills.
	flowBW := bw / units.Bandwidth(4*(active+1))
	for i := 0; i < active; i++ {
		src, dst := pair()
		if _, _, err := adm.Reserve(src, dst, flowBW); err != nil {
			break
		}
	}
	const batch = 2000
	return spans(budget, func() int {
		for i := 0; i < batch; i++ {
			src, dst := pair()
			if _, h, err := adm.Reserve(src, dst, flowBW); err == nil {
				adm.Release(h)
			}
		}
		return batch
	}), nil
}

// driveParsim measures one conservative synchronisation window of
// parsim.Run with two LPs: each LP fires one event per window, which
// sends one message to the other LP's mailbox, so every window pays the
// barrier, the minimum exchange and a mailbox drain.
func driveParsim(budget time.Duration, lookahead units.Time) float64 {
	if lookahead < 1 {
		lookahead = 1
	}
	lps := []*parsim.LP{{Eng: sim.New()}, {Eng: sim.New()}}
	q := []*parsim.Queue{{}, {}} // q[i] feeds LP i
	lps[0].In = []*parsim.Queue{q[0]}
	lps[1].In = []*parsim.Queue{q[1]}
	nop := func() {}
	for i := range lps {
		eng, out := lps[i].Eng, q[1-i]
		var tick func()
		tick = func() {
			out.Put(eng.Now()+lookahead, 1, nop)
			eng.After(lookahead, tick)
		}
		eng.At(0, tick)
	}
	const windows = 5000
	var horizon units.Time
	return spans(budget, func() int {
		horizon += windows * lookahead
		parsim.Run(lps, horizon, lookahead)
		return windows
	})
}
