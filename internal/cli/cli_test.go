package cli

import (
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"deadlineqos/internal/units"
)

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want units.Time
	}{
		{"5000", 5000},
		{"10ns", 10},
		{"20us", 20 * units.Microsecond},
		{"1.5ms", 1500 * units.Microsecond},
		{"2s", 2 * units.Second},
		{" 10ms ", 10 * units.Millisecond},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if err != nil {
			t.Errorf("ParseDuration(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseDuration(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "xyz", "-5ms", "10xs"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q) accepted", bad)
		}
	}
}

func TestParseTopology(t *testing.T) {
	cases := map[string]int{
		"paper":      128,
		"small":      16,
		"clos:2,4,2": 8,
		"tree:2,3":   8,
		"single:6":   6,
	}
	for spec, hosts := range cases {
		topo, err := ParseTopology(spec)
		if err != nil {
			t.Errorf("ParseTopology(%q): %v", spec, err)
			continue
		}
		if topo.Hosts() != hosts {
			t.Errorf("ParseTopology(%q).Hosts() = %d, want %d", spec, topo.Hosts(), hosts)
		}
	}
	for _, bad := range []string{"", "mesh", "clos:x", "tree:4", "single:1"} {
		if _, err := ParseTopology(bad); err == nil {
			t.Errorf("ParseTopology(%q) accepted", bad)
		}
	}
}

func TestParseLoads(t *testing.T) {
	loads, err := ParseLoads("0.1, 0.5 ,1.0")
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 3 || loads[0] != 0.1 || loads[2] != 1.0 {
		t.Fatalf("ParseLoads = %v", loads)
	}
	for _, bad := range []string{"", "abc", "1.5", "-0.1"} {
		if _, err := ParseLoads(bad); err == nil {
			t.Errorf("ParseLoads(%q) accepted", bad)
		}
	}
}

func TestScale(t *testing.T) {
	q, err := Scale("quick")
	if err != nil || q.Base.Topology.Hosts() != 16 {
		t.Errorf("Scale(quick) = %v hosts, err %v", q.Base.Topology, err)
	}
	p, err := Scale("paper")
	if err != nil || p.Base.Topology.Hosts() != 128 {
		t.Errorf("Scale(paper) wrong")
	}
	if _, err := Scale("huge"); err == nil {
		t.Error("Scale(huge) accepted")
	}
}

func TestParseSeeds(t *testing.T) {
	seeds, err := ParseSeeds("1, 2 ,30")
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 3 || seeds[0] != 1 || seeds[2] != 30 {
		t.Fatalf("ParseSeeds = %v", seeds)
	}
	for _, bad := range []string{"", "x", "1,-2"} {
		if _, err := ParseSeeds(bad); err == nil {
			t.Errorf("ParseSeeds(%q) accepted", bad)
		}
	}
}

func TestProfileStopReportsMemprofileError(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	prof := ProfileFlags(fs)
	bad := filepath.Join(t.TempDir(), "missing", "mem.prof")
	if err := fs.Parse([]string{"-memprofile", bad}); err != nil {
		t.Fatal(err)
	}
	if err := prof.Start(); err != nil {
		t.Fatal(err)
	}
	if err := prof.Stop(); err == nil {
		t.Fatal("Stop succeeded writing a heap profile to an uncreatable path")
	}
}

func TestDurationFlag(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	d := DurationFlag(fs, "d", 5*units.Millisecond, "")
	if *d != 5*units.Millisecond {
		t.Fatalf("default = %v", *d)
	}
	if err := fs.Parse([]string{"-d", "250us"}); err != nil {
		t.Fatal(err)
	}
	if *d != 250*units.Microsecond {
		t.Errorf("parsed = %v", *d)
	}
	if err := fs.Parse([]string{"-d", "soon"}); err == nil || !strings.Contains(err.Error(), "-d") {
		t.Errorf("bad duration: error %v, want one naming the flag", err)
	}
}

func TestSuiteOptions(t *testing.T) {
	opt, err := SuiteOptions("quick", "0.5,1.0", 3, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Loads) != 2 || opt.Parallelism != 3 || opt.Base.Shards != 2 || opt.Base.Seed != 7 {
		t.Errorf("SuiteOptions = loads %v par %d shards %d seed %d",
			opt.Loads, opt.Parallelism, opt.Base.Shards, opt.Base.Seed)
	}
	if _, err := SuiteOptions("huge", "", 0, 1, 1); err == nil {
		t.Error("unknown scale accepted")
	}
	if _, err := SuiteOptions("quick", "2", 0, 1, 1); err == nil {
		t.Error("out-of-range load accepted")
	}
}
