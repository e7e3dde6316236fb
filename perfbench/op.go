package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"
	"time"

	"deadlineqos/internal/network"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/stats"
	"deadlineqos/internal/units"
)

// op is one operation: a full simulation (build, run, output check) of a
// workload at one seed.
type op struct {
	setup time.Duration // host wall time of network.New
	wall  time.Duration // host wall time of Network.Run
	cpu   time.Duration // host CPU time (user+sys) of Network.Run
	gcs   uint32        // GC cycles completed during Network.Run

	net *network.Network
	res *network.Results
	// digest is the SHA-256 of the run's stats.Snapshot JSON: every
	// simulated statistic, and nothing host-dependent.
	digest string
	sim    simMetrics
	// err is the output-check failure, nil when the run is correct.
	err error
}

// simMetrics are the simulated end results of one run. They are a pure
// function of the configuration and seed, so any change to them is a
// change in the model's behaviour, never measurement noise.
type simMetrics struct {
	CtrlP99Us       float64 `json:"ctrl_p99_us"`
	BEThroughputPct float64 `json:"be_throughput_pct"`
	// Churn-only: zero when the run had no sessions or rogue hosts.
	SessionAcceptRatio   float64 `json:"session_accept_ratio"`
	SessionSetupP99Us    float64 `json:"session_setup_p99_us"`
	InnocentFrameMissPct float64 `json:"innocent_frame_miss_pct"`
}

// profileHz is the CPU profile sampling rate of traced runs.
const profileHz = 500

// runOp builds and runs one simulation of cfg, timing set-up and run, and
// checks its output. When prof is non-nil, Network.Run executes under a
// CPU profile written to prof. A configuration error (the run could not
// start) is returned; a failed output check is recorded in op.err.
func runOp(cfg network.Config, label string, prof io.Writer) (*op, error) {
	// Start each operation from a collected heap returned to the OS, so
	// no operation inherits another's garbage or resident pages.
	debug.FreeOSMemory()
	t0 := time.Now()
	n, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if prof != nil {
		// StartCPUProfile's own 100 Hz rate is too coarse for the
		// cheaper layers; setting the rate first makes it keep ours
		// (the runtime logs one warning to stderr about it).
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}
	cpu0 := cpuTime()
	t1 := time.Now()
	res := n.Run()
	wall := time.Since(t1)
	cpu := cpuTime() - cpu0
	if prof != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms1)

	o := &op{setup: setup, wall: wall, cpu: cpu, gcs: ms1.NumGC - ms0.NumGC, net: n, res: res}
	o.digest, o.err = checkOutput(n, res, label)
	o.sim = simulatedOf(res)
	return o, nil
}

// checkOutput verifies one run and returns its snapshot digest: packet
// conservation balances, the delivery oracle (where enabled) saw no
// double delivery, the structural audits pass, and every class delivered
// packets in the measurement window.
func checkOutput(n *network.Network, res *network.Results, label string) (string, error) {
	var buf bytes.Buffer
	if err := res.Collector.Snapshot(label).WriteJSON(&buf); err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	digest := hex.EncodeToString(sum[:])

	if err := res.Conservation.Check(); err != nil {
		return digest, err
	}
	if d := res.Conservation.DoubleDeliveries; d > 0 {
		return digest, fmt.Errorf("delivery oracle: %d double deliveries", d)
	}
	if err := n.AuditInvariants(); err != nil {
		return digest, fmt.Errorf("audit: %w", err)
	}
	for cl := packet.Class(0); cl < packet.NumClasses; cl++ {
		if res.PerClass[cl].DeliveredPackets == 0 {
			return digest, fmt.Errorf("class %v delivered no packets", cl)
		}
	}
	return digest, nil
}

// simulatedOf extracts one run's simulated metrics.
func simulatedOf(res *network.Results) simMetrics {
	m := simMetrics{
		CtrlP99Us: interpQuantile(res.PerClass[packet.Control].LatencyHist.CDF(), 0.99).Microseconds(),
	}
	if off := res.OfferedLoad(packet.BestEffort); off > 0 {
		m.BEThroughputPct = 100 * res.Throughput(packet.BestEffort) / off
	}
	if s := res.Sessions; s != nil {
		m.SessionAcceptRatio = s.AcceptRatio
		m.SessionSetupP99Us = s.SetupP99.Microseconds()
	}
	if res.Police != nil {
		m.InnocentFrameMissPct = 100 * res.InnocentMissRate()
	}
	return m
}

// bucketRatio is the width of a stats.Histogram bucket (8 per octave).
var bucketRatio = math.Exp2(1.0 / 8)

// interpQuantile estimates the q-quantile from a stats.Histogram CDF by
// geometric interpolation inside the bucket the quantile falls in. The
// histogram's own Quantile returns the bucket's upper bound, which moves
// in ~9% steps and so reads the same for most seeds; interpolating keeps
// the estimate exact per seed while letting it resolve smaller shifts.
func interpQuantile(cdf []stats.CDFPoint, q float64) units.Time {
	prev := 0.0
	for _, pt := range cdf {
		if pt.Cum >= q {
			if pt.Latency < 2 {
				return pt.Latency
			}
			hi := float64(pt.Latency)
			lo := hi / bucketRatio
			frac := 1.0
			if pt.Cum > prev {
				frac = (q - prev) / (pt.Cum - prev)
			}
			return units.Time(lo * math.Pow(hi/lo, frac))
		}
		prev = pt.Cum
	}
	if len(cdf) == 0 {
		return 0
	}
	return cdf[len(cdf)-1].Latency
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
