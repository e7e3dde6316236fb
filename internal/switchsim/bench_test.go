package switchsim

import (
	"testing"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/link"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/units"
)

const (
	benchRadix = 16
	benchBuf   = 32 * units.Kilobyte // per (port, VC): 8 packets per VOQ when spread evenly
)

// BenchmarkXbarArbitration measures the crossbar layer on a radix-16
// switch whose every input is backlogged toward every output.
//
//   - forward: one op is one crossbar transfer of a saturated switch (grant,
//     transfer, output buffering, link send), sources and sinks included.
//   - grant: one op is one grant decision (candidate gathering plus the
//     policy's pick) on a switch holding one packet per VOQ and VC; it
//     must not allocate.
func BenchmarkXbarArbitration(b *testing.B) {
	for _, a := range []arch.Arch{arch.Advanced2VC, arch.Ideal} {
		b.Run(a.String(), func(b *testing.B) {
			b.Run("forward", func(b *testing.B) { benchForward(b, a) })
			b.Run("grant", func(b *testing.B) { benchGrant(b, a) })
		})
	}
}

// benchSource keeps one input link saturated, spreading packets over
// every output and both VCs, and reuses the packets its sink hands back.
type benchSource struct {
	eng  *sim.Engine
	up   *link.Link
	free *[]*packet.Packet
	next *packet.Packet // built, waiting for credits
	n    int
	rng  uint64
}

func (s *benchSource) fill() {
	for {
		if s.next == nil {
			s.next = s.build()
		}
		if !s.up.CanSend(s.next) {
			return
		}
		s.next.PackTTD(s.eng.Now())
		s.up.Send(s.next)
		s.next = nil
	}
}

func (s *benchSource) build() *packet.Packet {
	var p *packet.Packet
	if k := len(*s.free); k > 0 {
		p, *s.free = (*s.free)[k-1], (*s.free)[:k-1]
	} else {
		p = &packet.Packet{Route: []int{0}}
	}
	s.n++
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	cl := packet.Class(s.n % packet.NumClasses)
	p.Class, p.VC, p.Size, p.Hop = cl, packet.VCOf(cl), 256, 0
	p.Route[0] = int(s.rng >> 60) // uniform over the 16 outputs
	// Deadlines mostly rise with time; the jitter sends some packets to
	// the take-over queue.
	p.Deadline = s.eng.Now() + 20*units.Microsecond + units.Time(s.rng>>54&1023)
	return p
}

// benchSink drains like a NIC and recycles the packet to the sources.
type benchSink struct {
	up   *link.Link
	free *[]*packet.Packet
}

func (k *benchSink) Receive(p *packet.Packet) {
	k.up.ReturnCredits(p.VC, p.Size)
	*k.free = append(*k.free, p)
}

func benchForward(b *testing.B, a arch.Arch) {
	eng := sim.New()
	sw := New(Config{Eng: eng, Clock: packet.Clock{Base: eng.Now}, Radix: benchRadix,
		Arch: a, BufPerVC: benchBuf})
	var free []*packet.Packet
	for p := 0; p < benchRadix; p++ {
		// Input links at twice the crossbar rate keep every input pool
		// full, so the switch, not its sources, sets the pace.
		up := link.New(eng, 2, 5, benchBuf, sw.InputReceiver(p))
		sw.ConnectUpstream(p, up)
		src := &benchSource{eng: eng, up: up, free: &free, rng: uint64(p)}
		up.OnReady = src.fill
		eng.At(0, src.fill)
		k := &benchSink{free: &free}
		k.up = link.New(eng, 1, 5, benchBuf, k)
		sw.ConnectDownstream(p, k.up)
	}
	step := units.Microsecond
	eng.Run(50 * units.Microsecond) // fill the VOQs
	b.ReportAllocs()
	b.ResetTimer()
	for start := sw.xbarTransfers; sw.xbarTransfers-start < uint64(b.N); {
		eng.Run(eng.Now() + step)
	}
}

func benchGrant(b *testing.B, a arch.Arch) {
	eng := sim.New()
	sw := New(Config{Eng: eng, Clock: packet.Clock{Base: eng.Now}, Radix: benchRadix,
		Arch: a, BufPerVC: benchBuf})
	// Hold every output busy while filling so nothing is granted yet.
	for _, op := range sw.out {
		op.busy = true
	}
	for in := 0; in < benchRadix; in++ {
		for o := 0; o < benchRadix; o++ {
			for cl := packet.Class(0); cl < packet.NumClasses; cl += 2 {
				p := &packet.Packet{Class: cl, VC: packet.VCOf(cl), Size: 256, Route: []int{o},
					Deadline: units.Time(1000 + (in*7+o*13)%64)}
				p.PackTTD(0)
				sw.receive(in, p)
			}
		}
	}
	for _, op := range sw.out {
		op.busy = false
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		op := sw.out[n%benchRadix]
		sw.gather(op)
		if _, sel := op.arb.PickXbar(&op.cands); sel < 0 {
			b.Fatal("backlogged switch granted nothing")
		}
	}
}
