// Package harness runs batches of simulations for the experiment suite:
// load sweeps across switch architectures, executed concurrently on a
// bounded worker pool. Each simulation is single-threaded and owns all its
// state, so runs parallelise perfectly; results come back in deterministic
// order regardless of scheduling.
package harness

import (
	"fmt"
	"runtime"
	"sync"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/metrics"
	"deadlineqos/internal/network"
	"deadlineqos/internal/report"
	"deadlineqos/internal/stats"
	"deadlineqos/internal/trace"
	"deadlineqos/internal/units"
)

// Point is the outcome of one (architecture, load) simulation.
type Point struct {
	Arch arch.Arch
	Load float64
	Res  *network.Results
	Err  error
}

// Sweep runs base for every architecture x load combination. The same seed
// (and therefore the same offered traffic) is used across architectures at
// equal load, which is what makes the paper's cross-architecture
// comparisons meaningful. parallelism <= 0 selects GOMAXPROCS workers.
func Sweep(base network.Config, archs []arch.Arch, loads []float64, parallelism int) []Point {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	points := make([]Point, len(archs)*len(loads))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				a := archs[idx/len(loads)]
				load := loads[idx%len(loads)]
				cfg := base
				cfg.Arch = a
				cfg.Load = load
				res, err := network.Run(cfg)
				points[idx] = Point{Arch: a, Load: load, Res: res, Err: err}
			}
		}()
	}
	for i := range points {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return points
}

// ByArch groups a sweep's points per architecture, preserving load order.
func ByArch(points []Point) map[arch.Arch][]Point {
	m := make(map[arch.Arch][]Point)
	for _, p := range points {
		m[p.Arch] = append(m[p.Arch], p)
	}
	return m
}

// FirstErr returns the first error in a sweep, if any.
func FirstErr(points []Point) error {
	for _, p := range points {
		if p.Err != nil {
			return p.Err
		}
	}
	return nil
}

// ReplicatedPoint aggregates several seeds of one (architecture, load)
// cell, for experiments that report confidence intervals rather than
// single-run values.
type ReplicatedPoint struct {
	Arch arch.Arch
	Load float64
	// Runs holds one result per seed, in seed order. Failed runs are nil;
	// Err records the first failure.
	Runs []*network.Results
	Err  error
}

// Replicate runs base for every (architecture, load, seed) combination and
// groups results per cell. Seeds vary the offered traffic; at a fixed seed
// the traffic is identical across architectures, preserving the paired
// comparison property of Sweep.
func Replicate(base network.Config, archs []arch.Arch, loads []float64, seeds []uint64, parallelism int) []ReplicatedPoint {
	if len(seeds) == 0 {
		seeds = []uint64{base.Seed}
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	cells := len(archs) * len(loads)
	points := make([]ReplicatedPoint, cells)
	for i := range points {
		points[i] = ReplicatedPoint{
			Arch: archs[i/len(loads)],
			Load: loads[i%len(loads)],
			Runs: make([]*network.Results, len(seeds)),
		}
	}
	type job struct{ cell, seedIdx int }
	jobs := make(chan job)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				p := &points[j.cell]
				cfg := base
				cfg.Arch = p.Arch
				cfg.Load = p.Load
				cfg.Seed = seeds[j.seedIdx]
				res, err := network.Run(cfg)
				mu.Lock()
				p.Runs[j.seedIdx] = res
				if err != nil && p.Err == nil {
					p.Err = err
				}
				mu.Unlock()
			}
		}()
	}
	for c := 0; c < cells; c++ {
		for s := range seeds {
			jobs <- job{c, s}
		}
	}
	close(jobs)
	wg.Wait()
	return points
}

// MeanStd evaluates metric on every successful run of the cell and returns
// the sample mean and standard deviation (std is 0 for fewer than 2 runs).
func (p ReplicatedPoint) MeanStd(metric func(*network.Results) float64) (mean, std float64) {
	var s stats.Series
	for _, r := range p.Runs {
		if r != nil {
			s.Add(metric(r))
		}
	}
	return s.Mean(), s.StdDev()
}

// PerfTable renders the engine profile of every successful point in a
// sweep: shard count, event throughput, wall clock per simulated second,
// peak event queue depth, and allocation volume. Failed points are
// skipped.
func PerfTable(title string, points []Point) *report.Table {
	t := report.NewTable(title,
		"arch", "load", "shards", "events", "Mev/s", "wall/sim", "max pending", "allocs", "alloc MiB", "allocs/ev")
	for _, p := range points {
		if p.Err != nil || p.Res == nil {
			continue
		}
		pf := p.Res.Perf
		t.AddF(p.Arch.String(), p.Load, shardsOf(p.Res), pf.Events, pf.EventsPerSec/1e6,
			pf.WallPerSimSec, pf.MaxPending, pf.Mallocs, float64(pf.AllocBytes)/(1<<20),
			pf.MallocsPerEvent)
	}
	return t
}

func shardsOf(r *network.Results) int {
	if r.Config.Shards > 1 {
		return r.Config.Shards
	}
	return 1
}

// SpeedupTable compares a sharded sweep against its sequential baseline,
// point by point (both sweeps must cover the same architecture x load
// grid, as two Sweep calls with equal archs/loads do). Speedup is the
// wall-clock ratio; the results themselves are identical by construction,
// so wall clock is the only thing sharding changes.
func SpeedupTable(title string, baseline, sharded []Point) *report.Table {
	t := report.NewTable(title,
		"arch", "load", "shards", "seq wall (ms)", "par wall (ms)", "speedup")
	for i := range sharded {
		if i >= len(baseline) {
			break
		}
		b, p := baseline[i], sharded[i]
		if b.Err != nil || p.Err != nil || b.Res == nil || p.Res == nil {
			continue
		}
		speedup := 0.0
		if p.Res.Perf.WallNs > 0 {
			speedup = float64(b.Res.Perf.WallNs) / float64(p.Res.Perf.WallNs)
		}
		t.AddF(p.Arch.String(), p.Load, shardsOf(p.Res),
			float64(b.Res.Perf.WallNs)/1e6, float64(p.Res.Perf.WallNs)/1e6, speedup)
	}
	return t
}

// GateConfig builds one perf-gate scenario: the configurations the root
// package's benchmarks record into BENCH_<scenario>.json and cmd/qosbench
// re-measures against those baselines.
//
//	simrate          full-load Advanced on the 16-host Clos, 2 ms
//	simrate_traced   simrate with 2% lifecycle tracing and order tracking
//	simrate_metrics  simrate recording into a live metrics registry
//	parsim           full-load Advanced on the paper-scale MIN, 3 ms
//
// Tracers and registries are single-use: build a fresh config per run.
func GateConfig(scenario string, seed uint64) (network.Config, error) {
	cfg := network.SmallConfig()
	cfg.Measure = 2 * units.Millisecond
	switch scenario {
	case "simrate":
	case "simrate_traced":
		tr, err := trace.New(trace.Config{SampleRate: 0.02, Seed: seed})
		if err != nil {
			return cfg, err
		}
		cfg.Tracer, cfg.TrackOrderErrors = tr, true
	case "simrate_metrics":
		cfg.Metrics = metrics.NewRegistry()
	case "parsim":
		cfg = network.DefaultConfig()
		cfg.Measure = 3 * units.Millisecond
	default:
		return cfg, fmt.Errorf("unknown scenario (want simrate|simrate_traced|simrate_metrics|parsim)")
	}
	cfg.Arch, cfg.Load, cfg.WarmUp, cfg.Seed = arch.Advanced2VC, 1.0, 0, seed
	return cfg, nil
}
