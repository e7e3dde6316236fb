// Chaos: inject a reproducible fault storm — link flaps, mid-run bandwidth
// derating, and a 1e-6 bit-error rate on every link — into the Table 1 mix
// at 80% load, with the end-to-end reliability layer recovering (CRC drops
// at the receiver, NAKs, timeout retransmission with §3.1 deadline
// re-stamping, demotion to best-effort after repeated failures).
//
// Two things to watch:
//
//   - Graceful degradation: control p99 stays bounded and video frames keep
//     (almost) meeting their 10 ms target even though thousands of packets
//     are corrupted or lost and must be retransmitted.
//
//   - Conservation: every packet generated is delivered exactly once,
//     dropped-and-accounted, or still in flight when the run stops — the
//     books balance to the packet, faults and all.
//
// Run with: go run ./examples/chaos
package main

import (
	"fmt"
	"log"

	"deadlineqos"
	"deadlineqos/internal/topology"
)

func main() {
	topo, err := topology.NewFoldedClos(4, 4, 4) // 16 hosts
	if err != nil {
		log.Fatal(err)
	}
	cfg := deadlineqos.SmallConfig()
	cfg.Topology = topo
	cfg.Arch = deadlineqos.Advanced2VC
	cfg.Load = 0.8
	cfg.WarmUp = 2 * deadlineqos.Millisecond
	cfg.Measure = 30 * deadlineqos.Millisecond

	horizon := cfg.WarmUp + cfg.Measure
	plan := deadlineqos.RandomFaultPlan(7, deadlineqos.WiredLinks(topo), horizon, deadlineqos.FaultRandomConfig{
		Flaps:    4,
		MinDown:  100 * deadlineqos.Microsecond,
		MaxDown:  800 * deadlineqos.Microsecond,
		Derates:  2,
		MinScale: 0.3,
	})
	plan.DefaultBER = 1e-6 // one bit error per ~125 MB on every link
	cfg.Faults = plan
	cfg.Reliability = deadlineqos.Reliability{Enabled: true}
	cfg.CheckInvariants = true

	res, err := deadlineqos.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("fault trace (replays identically for the same seeds):")
	for _, e := range res.FaultTrace {
		fmt.Printf("  %v\n", e)
	}

	ctrl := &res.PerClass[deadlineqos.Control]
	mm := &res.PerClass[deadlineqos.Multimedia]
	fmt.Printf("\ncontrol:    p99 %v (corrupt %d, retransmitted %d)\n",
		ctrl.LatencyHist.Quantile(0.99), ctrl.CorruptedPackets, ctrl.RetransmittedPackets)
	fmt.Printf("multimedia: frame p99 %v, %.1f%% of frames within 11ms of the 10ms target\n",
		mm.FrameHist.Quantile(0.99), 100*mm.FrameHist.FractionBelow(11*deadlineqos.Millisecond))
	fmt.Printf("recovery:   %d lost to flaps, %d corrupted, %d retransmitted, %d demoted\n",
		res.LostOnLink, res.Conservation.ArrivedCorrupt,
		res.Reliability.Retransmitted, res.Reliability.Demoted)

	fmt.Printf("\nconservation: %v\n", res.Conservation)
	if err := res.Conservation.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("conservation: OK — every packet delivered once, accounted, or in flight")
}
