package soak

import (
	"encoding/json"
	"testing"

	"deadlineqos/internal/faults"
	"deadlineqos/internal/network"
	"deadlineqos/internal/session"
)

// TestSoakSmoke runs two randomized epochs and expects every invariant to
// hold.
func TestSoakSmoke(t *testing.T) {
	rep, err := Run(Options{Seed: 1, Epochs: 2, SwitchFaults: 2, Flaps: 3, Derates: 2, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != 2 {
		t.Fatalf("got %d epoch reports, want 2", len(rep.Epochs))
	}
	for _, ep := range rep.Epochs {
		if ep.Results.Conservation.DeliveredUnique == 0 {
			t.Fatalf("epoch %d delivered nothing", ep.Epoch)
		}
	}
}

// TestSoakEpochShardDeterminism pins a soak epoch to byte-identical
// results at 1, 2 and 4 shards — the property that makes the printed
// replay command trustworthy regardless of the shard count it ran under.
func TestSoakEpochShardDeterminism(t *testing.T) {
	type snap struct {
		Cons  faults.Conservation
		Trace []faults.TraceEntry
		Avail *network.Availability
		Sess  *session.Results
	}
	var base []byte
	for _, shards := range []int{1, 2, 4} {
		cfg := EpochConfig(Options{Seed: 3, Shards: shards, SwitchFaults: 2, Flaps: 3, Derates: 2}, 0)
		res, err := network.Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		b, err := json.Marshal(snap{
			Cons: res.Conservation, Trace: res.FaultTrace,
			Avail: res.Availability, Sess: res.Sessions,
		})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = b
			continue
		}
		if string(b) != string(base) {
			t.Fatalf("shards=%d diverges:\n%s\nvs sequential:\n%s", shards, b, base)
		}
	}
}

// TestSoakEpochSeedDecorrelated checks neighbouring epochs draw distinct
// fault plans (the splitmix64 finalizer actually separates the streams).
func TestSoakEpochSeedDecorrelated(t *testing.T) {
	s0, s1 := EpochSeed(1, 0), EpochSeed(1, 1)
	if s0 == s1 {
		t.Fatal("adjacent epoch seeds collide")
	}
	opt := Options{Seed: 1, SwitchFaults: 2, Flaps: 3, Derates: 2}
	c0 := EpochConfig(opt, 0)
	c1 := EpochConfig(opt, 1)
	b0, _ := json.Marshal(c0.Faults.Events)
	b1, _ := json.Marshal(c1.Faults.Events)
	if string(b0) == string(b1) {
		t.Fatal("adjacent epochs drew identical fault plans")
	}
}

// TestSoakZeroFaultCounts checks a zero count injects no faults of that
// kind: zero means zero, not "use the default".
func TestSoakZeroFaultCounts(t *testing.T) {
	full := EpochConfig(Options{Seed: 1, SwitchFaults: 2, Flaps: 3, Derates: 2}, 0)
	kinds := func(cfg network.Config) map[faults.Kind]int {
		n := map[faults.Kind]int{}
		for _, ev := range cfg.Faults.Events {
			n[ev.Kind]++
		}
		return n
	}
	if k := kinds(full); k[faults.SwitchDown] == 0 || k[faults.LinkDown] == 0 || k[faults.Derate] == 0 {
		t.Fatalf("2/3/2 plan lacks a fault kind: %v", k)
	}
	for _, tc := range []struct {
		name string
		opt  Options
		kind faults.Kind
	}{
		{"switch-faults", Options{Seed: 1, Flaps: 3, Derates: 2}, faults.SwitchDown},
		{"flaps", Options{Seed: 1, SwitchFaults: 2, Derates: 2}, faults.LinkDown},
		{"derates", Options{Seed: 1, SwitchFaults: 2, Flaps: 3}, faults.Derate},
	} {
		if n := kinds(EpochConfig(tc.opt, 0))[tc.kind]; n != 0 {
			t.Errorf("-%s 0 still injects %d %v events", tc.name, n, tc.kind)
		}
	}
}
