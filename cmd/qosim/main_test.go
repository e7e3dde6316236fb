package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"deadlineqos/internal/experiments"
	"deadlineqos/internal/network"
	"deadlineqos/internal/units"
)

// parse builds the configuration for one command line.
func parse(args string) (*flags, network.Config, error) {
	fs := flag.NewFlagSet("qosim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := newFlags(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		return f, network.Config{}, err
	}
	cfg, err := f.config()
	return f, cfg, err
}

func TestConfig(t *testing.T) {
	const ciFlash = "-topo small -arch advanced -load 0.5 -inter 100us -hold 1ms -delegate -local 0.7 -flash 6 -flashat 500us -flashlen 1ms -warmup 200us -measure 2ms -shards 2"
	cases := []struct {
		name, args string

		sessions, tracer, invariants, reliability, police bool
		faultEvents                                       int // -1: no fault plan
		ber                                               float64
		probe                                             units.Time
		guard                                             units.Size
	}{
		{name: "defaults", args: "", faultEvents: -1},
		{
			name:   "ci trace smoke",
			args:   "-topo small -arch advanced -load 0.8 -warmup 200us -measure 2ms -sample 0.05 -probe 100us -out x",
			tracer: true, faultEvents: -1, probe: 100 * units.Microsecond,
		},
		{
			name:     "ci churn smoke",
			args:     "-topo small -arch advanced -load 1.0 -inter 80us -hold 2ms -warmup 200us -measure 2ms -derates 2 -shards 2 -probe 200us -csv x",
			sessions: true, invariants: true, faultEvents: 4, probe: 200 * units.Microsecond,
		},
		{
			name:     "ci delegated flash-crowd smoke",
			args:     ciFlash,
			sessions: true, invariants: true, faultEvents: -1,
		},
		{
			name:     "ci combined smoke",
			args:     "-topo small -load 0.8 -warmup 200us -measure 2ms -shards 2 -flaps 2 -derates 2 -ber 1e-7 -reliability -rogues 2 -police -guard 8KB -inter 100us -probe 100us -out x",
			sessions: true, tracer: true, invariants: true, reliability: true, police: true,
			faultEvents: 10, ber: 1e-7, probe: 100 * units.Microsecond, guard: 8 * units.Kilobyte,
		},
		{
			name:       "chaos",
			args:       "-topo small -load 0.8 -warmup 2ms -measure 20ms -flaps 4 -derates 2 -ber 1e-6 -reliability",
			invariants: true, reliability: true, faultEvents: 12, ber: 1e-6,
		},
		{
			name:       "bit errors alone",
			args:       "-topo small -ber 1e-6",
			invariants: true, faultEvents: 0, ber: 1e-6,
		},
		{
			name:       "forgery with both protection layers",
			args:       "-topo small -forges 2 -police -guard 8KB",
			invariants: true, police: true, faultEvents: 2, guard: 8 * units.Kilobyte,
		},
		{
			name:        "metrics default the probe",
			args:        "-topo small -metrics-addr 127.0.0.1:0 -csv x",
			faultEvents: -1, probe: 100 * units.Microsecond,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, cfg, err := parse(c.args)
			if err != nil {
				t.Fatal(err)
			}
			if got := cfg.Sessions != nil; got != c.sessions {
				t.Errorf("Sessions set = %v, want %v", got, c.sessions)
			}
			if got := cfg.Tracer != nil; got != c.tracer {
				t.Errorf("Tracer set = %v, want %v", got, c.tracer)
			}
			if c.tracer && !cfg.TrackOrderErrors {
				t.Error("tracing run without TrackOrderErrors")
			}
			if cfg.CheckInvariants != c.invariants {
				t.Errorf("CheckInvariants = %v, want %v", cfg.CheckInvariants, c.invariants)
			}
			if cfg.Reliability.Enabled != c.reliability {
				t.Errorf("Reliability.Enabled = %v, want %v", cfg.Reliability.Enabled, c.reliability)
			}
			if cfg.Police != c.police || cfg.GuardBytes != c.guard {
				t.Errorf("Police, GuardBytes = %v, %v, want %v, %v", cfg.Police, cfg.GuardBytes, c.police, c.guard)
			}
			if cfg.ProbeInterval != c.probe {
				t.Errorf("ProbeInterval = %v, want %v", cfg.ProbeInterval, c.probe)
			}
			switch {
			case c.faultEvents < 0 && cfg.Faults != nil:
				t.Errorf("unexpected fault plan with %d events", len(cfg.Faults.Events))
			case c.faultEvents >= 0 && cfg.Faults == nil:
				t.Error("no fault plan")
			case c.faultEvents >= 0:
				if n := len(cfg.Faults.Events); n != c.faultEvents || cfg.Faults.DefaultBER != c.ber {
					t.Errorf("fault plan: %d events BER %g, want %d events BER %g",
						n, cfg.Faults.DefaultBER, c.faultEvents, c.ber)
				}
			}
		})
	}

	_, cfg, err := parse(ciFlash)
	if err != nil {
		t.Fatal(err)
	}
	if s := cfg.Sessions; !s.Delegation || s.LocalFrac != 0.7 || s.FlashFactor != 6 ||
		s.FlashAt != 500*units.Microsecond || s.FlashLen != units.Millisecond {
		t.Errorf("delegated sessions = %+v", *s)
	}
}

// TestFaultPlanMatchesExperiments pins the plan arithmetic: flap runs draw
// experiments.ChaosPlan, derate-only runs experiments.ChurnPlan.
func TestFaultPlanMatchesExperiments(t *testing.T) {
	_, cfg, err := parse("-topo small -warmup 2ms -measure 20ms -faultseed 3 -flaps 4 -derates 2 -ber 1e-6")
	if err != nil {
		t.Fatal(err)
	}
	horizon := cfg.WarmUp + cfg.Measure
	if want := experiments.ChaosPlan(3, cfg.Topology, horizon); !reflect.DeepEqual(cfg.Faults, want) {
		t.Errorf("flap plan differs from ChaosPlan")
	}
	_, cfg, err = parse("-topo small -warmup 1ms -measure 10ms -faultseed 11 -derates 4")
	if err != nil {
		t.Fatal(err)
	}
	horizon = cfg.WarmUp + cfg.Measure
	if want := experiments.ChurnPlan(11, cfg.Topology, horizon); !reflect.DeepEqual(cfg.Faults, want) {
		t.Errorf("derate-only plan differs from ChurnPlan")
	}
}

func TestConfigErrors(t *testing.T) {
	cases := []struct{ args, want string }{
		{"-topo small -inter 200us -csv x", "-csv needs -probe"},
		{"-topo small -inter 200us -local 0.7", "-local needs -delegate"},
		{"-topo small -delegate", "-delegate needs -inter"},
		{"-topo small -inter 200us -flashat 1ms", "-flashat needs -flash"},
		{"-topo small -switch-mttf 1ms", "-switch-mttf needs -switch-faults"},
		{"-topo small -sample 0.5", "-sample needs -out"},
		{"-topo small -guard 8XB", "-guard"},
		{"-topo small -inter soon", "bad duration"},
		{"-arch bogus", "unknown architecture"},
		{"-topo small -sample 2 -out x", "sample"},
	}
	for _, c := range cases {
		_, _, err := parse(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v, want it to mention %q", c.args, err, c.want)
		}
	}
}

// TestCreateFailsBeforeRun checks that unwritable outputs are reported
// by create, which runs before the simulation.
func TestCreateFailsBeforeRun(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "x")
	for _, args := range []string{"-json " + missing, "-dump " + missing, "-probe 100us -csv " + missing} {
		f, cfg, err := parse("-topo small " + args)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := f.create(&cfg)
		if err == nil {
			t.Errorf("%q: create succeeded", args)
		}
		for _, o := range outs {
			o.f.Close()
		}
	}

	dir := filepath.Join(t.TempDir(), "trace")
	f, cfg, err := parse("-topo small -probe 100us -out " + dir)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := f.create(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		o.f.Close()
	}
	for _, name := range []string{"trace.jsonl", "trace_chrome.json", "telemetry.csv", "telemetry.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Error(err)
		}
	}
	if len(outs) != 4 {
		t.Errorf("created %d trace artefacts, want 4", len(outs))
	}
}
