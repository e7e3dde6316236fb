// Shared observability plumbing for the command-line tools: the entry
// point that runs a command under the pprof profile flags, and the live
// metrics server flag, spelled identically everywhere.

package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"deadlineqos/internal/metrics"
)

// Profile carries the shared -cpuprofile / -memprofile flag values and
// the open CPU-profile file between Start and Stop.
type Profile struct {
	cpu *string
	mem *string
	f   *os.File
}

// ProfileFlags registers the shared -cpuprofile and -memprofile flags.
// Call Start after parsing and Stop before exiting; Main does both.
func ProfileFlags(fs *flag.FlagSet) *Profile {
	return &Profile{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Start begins CPU profiling when -cpuprofile was given.
func (p *Profile) Start() error {
	if p == nil || *p.cpu == "" {
		return nil
	}
	f, err := os.Create(*p.cpu)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	p.f = f
	return nil
}

// Stop ends CPU profiling and writes the heap profile when requested.
// Safe to call unconditionally (and more than once).
func (p *Profile) Stop() error {
	if p == nil {
		return nil
	}
	if p.f != nil {
		pprof.StopCPUProfile()
		err := p.f.Close()
		p.f = nil
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if *p.mem != "" {
		f, err := os.Create(*p.mem)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // an up-to-date heap picture, not the allocator's lag
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		return f.Close()
	}
	return nil
}

// Main is a command's entry point. It registers the shared profile flags,
// parses the command line (register the command's own flags first), runs
// body under the requested profiles, and exits non-zero naming the
// command when body fails or a profile cannot be written.
func Main(name string, body func() error) {
	prof := ProfileFlags(flag.CommandLine)
	flag.Parse()
	err := prof.Start()
	if err == nil {
		err = body()
		if serr := prof.Stop(); err == nil {
			err = serr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// MetricsAddrFlag registers the shared -metrics-addr flag: a listen
// address for the live metrics server (Prometheus text at /metrics,
// JSON at /metrics.json, expvar at /debug/vars, pprof under
// /debug/pprof/). Empty disables it.
func MetricsAddrFlag(fs *flag.FlagSet) *string {
	return fs.String("metrics-addr", "", "serve live metrics and pprof on this address (e.g. :9100; empty = off)")
}

// StartMetrics starts the live metrics server when addr is non-empty and
// logs the bound address. The caller owns reg; the returned server (nil
// when disabled) should be Closed on exit.
func StartMetrics(addr string, reg *metrics.Registry) (*metrics.Server, error) {
	if addr == "" {
		return nil, nil
	}
	srv, err := metrics.StartServer(addr, reg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "metrics: serving on http://%s/metrics\n", srv.Addr())
	return srv, nil
}
