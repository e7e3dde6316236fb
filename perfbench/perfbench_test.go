package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"deadlineqos/internal/network"
	"deadlineqos/internal/stats"
	"deadlineqos/internal/units"
)

// Minimal protobuf encoding, enough to write a fixed pprof profile.
func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbUint(b []byte, num int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(num)<<3), v)
}

func pbBytes(b []byte, num int, p []byte) []byte {
	b = pbVarint(b, uint64(num)<<3|2)
	return append(pbVarint(b, uint64(len(p))), p...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = pbVarint(p, v)
	}
	return pbBytes(b, num, p)
}

// fixedProfile encodes a CPU profile whose leaf functions and sample
// counts are known: location 1 is pqueue code inlined into switchsim, so
// its self time belongs to pqueue.
func fixedProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"",
		"deadlineqos/internal/pqueue.(*fifoQueue).front",   // 1
		"deadlineqos/internal/switchsim.(*Switch).tryXbar", // 2
		"deadlineqos/internal/sim.(*Engine).Run",           // 3
		"runtime.mallocgc",                                 // 4
		"runtime.scanobject",                               // 5
		"internal/runtime/maps.(*Map).getWithKeySmall",     // 6
		"deadlineqos/internal/policy.edf.Less",             // 7
		"deadlineqos/internal/xrand.(*Rand).Uint64",        // 8
		"runtime.futex",                                    // 9
	}
	var prof []byte
	for i := 1; i < len(strs); i++ {
		var fn []byte
		fn = pbUint(fn, functionID, uint64(i))
		fn = pbUint(fn, functionName, uint64(i))
		prof = pbBytes(prof, profFunction, fn)
	}
	// Location i has function i as its only line, except location 1,
	// whose lines are pqueue (innermost, inlined) then switchsim.
	for i := 1; i < len(strs); i++ {
		var loc []byte
		loc = pbUint(loc, locationID, uint64(i))
		lines := []int{i}
		if i == 1 {
			lines = []int{1, 2}
		}
		for _, f := range lines {
			loc = pbBytes(loc, locationLine, pbUint(nil, lineFunction, uint64(f)))
		}
		prof = pbBytes(prof, profLocation, loc)
	}
	// (leaf location, caller location, samples)
	for _, s := range [][3]uint64{
		{1, 3, 30}, {2, 3, 20}, {3, 3, 25}, {4, 2, 10}, {5, 5, 5},
		{6, 3, 4}, {7, 2, 3}, {8, 3, 2}, {9, 9, 1},
	} {
		var smp []byte
		smp = pbPacked(smp, sampleLocationID, s[0], s[1])
		smp = pbPacked(smp, sampleValue, s[2], s[2]*2000000)
		prof = pbBytes(prof, profSample, smp)
	}
	for _, s := range strs {
		prof = pbBytes(prof, profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestProfileGroupsSelfTimeByLayer(t *testing.T) {
	self, err := selfSamples(fixedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := self["deadlineqos/internal/pqueue.(*fifoQueue).front"]; got != 30 {
		t.Fatalf("inlined leaf got %d samples, want 30", got)
	}
	pct, total := groupLayers(self)
	if total != 100 {
		t.Fatalf("total samples %d, want 100", total)
	}
	want := map[string]float64{
		"pqueue": 30, "switchsim": 20, "sim": 25, "runtime.alloc": 10, "runtime.gc": 5,
		"runtime.maps": 4, "arbiter": 3, "other": 2, "runtime.sched": 1,
		"parsim": 0, "session": 0, "police": 0,
	}
	for l, w := range want {
		if got := pct[l]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s: %.2f%%, want %.2f%%", l, got, w)
		}
	}
	for _, l := range layers {
		if _, ok := pct[l]; !ok {
			t.Errorf("layer %s missing from the grouping", l)
		}
	}
}

func TestProfileRejectsGarbage(t *testing.T) {
	if _, err := selfSamples([]byte("not a profile")); err == nil {
		t.Fatal("decoding garbage succeeded")
	}
	if _, err := selfSamplesRaw([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Fatal("decoding a truncated message succeeded")
	}
}

func TestClassify(t *testing.T) {
	for fn, want := range map[string]string{
		"deadlineqos/internal/parsim.(*barrier).wait":      "parsim",
		"deadlineqos/internal/arbiter.Pick":                "arbiter",
		"deadlineqos/internal/topology.(*MIN).Peer":        "other",
		"runtime.mapaccess2_fast64":                        "runtime.maps",
		"runtime.gcDrain":                                  "runtime.gc",
		"runtime.(*mcache).refill":                         "runtime.alloc",
		"runtime.casgstatus":                               "runtime.sched",
		"sync.(*Mutex).Lock":                               "runtime.sched",
		"runtime.memmove":                                  "other",
		"sort.Ints":                                        "other",
		"deadlineqos/internal/stats.(*Histogram).Add":      "stats",
		"deadlineqos/internal/network.(*Network).hooksFor": "network",
	} {
		if got := classify(fn); got != want {
			t.Errorf("classify(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1.5, 9.25, 2, 7}, 1.75, 5, 8.125},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median/quartiles reordered their input")
	}
}

func TestInterpQuantile(t *testing.T) {
	cdf := []stats.CDFPoint{{Latency: 100, Cum: 0.5}, {Latency: 200, Cum: 0.9}, {Latency: 400, Cum: 1}}
	if got := interpQuantile(cdf, 1); got != 400 {
		t.Errorf("q=1 -> %v, want the last bucket's upper bound 400", got)
	}
	if got := interpQuantile(cdf, 0.9); got != 200 {
		t.Errorf("q=0.9 -> %v, want the bucket's upper bound 200", got)
	}
	// Halfway through the last bucket's mass: geometric midpoint of
	// [400/2^(1/8), 400].
	want := units.Time(400 / math.Pow(2, 1.0/16))
	if got := interpQuantile(cdf, 0.95); got != want {
		t.Errorf("q=0.95 -> %v, want %v", got, want)
	}
	if got := interpQuantile(nil, 0.99); got != 0 {
		t.Errorf("empty CDF -> %v, want 0", got)
	}
}

// shortChurn is churn_protected over a short window: every plane on,
// cheap enough for unit tests.
func shortChurn(t *testing.T, seed uint64) network.Config {
	t.Helper()
	cfg, err := churnProtected(seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WarmUp = 500 * units.Microsecond
	cfg.Measure = units.Millisecond
	return cfg
}

func TestSameSeedSameDigestAndMetrics(t *testing.T) {
	a, err := runOp(shortChurn(t, 7), "churn_protected", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOp(shortChurn(t, 7), "churn_protected", nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.err != nil || b.err != nil {
		t.Fatalf("output check failed: %v / %v", a.err, b.err)
	}
	if a.digest != b.digest {
		t.Errorf("same seed, different digests: %s vs %s", a.digest, b.digest)
	}
	if a.sim != b.sim {
		t.Errorf("same seed, different simulated metrics: %+v vs %+v", a.sim, b.sim)
	}
	if a.sim.CtrlP99Us <= 0 || a.sim.BEThroughputPct <= 0 || a.sim.SessionAcceptRatio <= 0 {
		t.Errorf("simulated metrics not measured: %+v", a.sim)
	}
	c, err := runOp(shortChurn(t, 8), "churn_protected", nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.digest == a.digest {
		t.Error("a different seed produced the same digest")
	}
}

func TestShardCountKeepsDigest(t *testing.T) {
	var digests []string
	for _, shards := range []int{1, 2} {
		cfg := shortChurn(t, 3)
		cfg.Shards = shards
		o, err := runOp(cfg, "churn_protected", nil)
		if err != nil {
			t.Fatal(err)
		}
		if o.err != nil {
			t.Fatalf("shards=%d: %v", shards, o.err)
		}
		digests = append(digests, o.digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("digest at 2 shards %s differs from 1 shard %s", digests[1], digests[0])
	}
}

func TestRunPrintsResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "churn_protected", "--seed", "2", "--seconds", "0.01", "--trace", "0"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result %+v", res)
	}
	for _, name := range []string{"setup_s", "sim_us_per_s", "cpu_s", "max_rss_mb", "ctrl_p99_us", "be_throughput_pct"} {
		m, ok := res.Metrics[name]
		if !ok || m.Value <= 0 || m.Unit == "" {
			t.Errorf("metric %s = %+v, present %v", name, m, ok)
		}
	}
	if len(res.Metrics) != 6 {
		t.Errorf("got %d metrics, want 6", len(res.Metrics))
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "churn_protected", "--trace", "2"},
		{"--workload", "churn_protected", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q", args, out.String())
		}
	}
}
