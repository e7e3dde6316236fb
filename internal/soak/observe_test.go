package soak

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"deadlineqos/internal/metrics"
	"deadlineqos/internal/units"
)

// TestInjectFailureDumpsFlightRecorder exercises the whole failure path
// the CI smoke test relies on: an injected audit violation must abort
// the soak with a replay recipe AND leave a valid flight-recorder dump
// behind.
func TestInjectFailureDumpsFlightRecorder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flightrec.jsonl")
	_, err := Run(Options{
		Seed: 1, Epochs: 1, WarmUp: 200 * units.Microsecond,
		Measure: 2 * units.Millisecond, Log: t.Logf,
		SwitchFaults: 2, Flaps: 3, Derates: 2,
		FlightPath:    path,
		InjectFailure: true,
	})
	if err == nil {
		t.Fatal("InjectFailure soak returned nil error")
	}
	msg := err.Error()
	for _, want := range []string{"injected invariant failure", "flight recorder window", "replay: go run ./cmd/qossoak"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("flight dump missing: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("flight dump is empty")
	}
	meta := sc.Text()
	if !strings.Contains(meta, `"flightrec"`) || !strings.Contains(meta, "invariant-audit-failure") {
		t.Errorf("dump meta line %q lacks flightrec marker or trip reason", meta)
	}
	events := 0
	for sc.Scan() {
		events++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Error("flight dump has a meta line but no events")
	}
}

// TestSoakMetricsAccumulateAcrossEpochs runs two metric-enabled epochs
// and checks the rotated registry still exposes the whole soak's
// counters on the scrape rendering.
func TestSoakMetricsAccumulateAcrossEpochs(t *testing.T) {
	reg := metrics.NewRegistry()
	rep, err := Run(Options{
		Seed: 1, Epochs: 2, WarmUp: 200 * units.Microsecond,
		Measure: 2 * units.Millisecond, Log: t.Logf,
		SwitchFaults: 2, Flaps: 3, Derates: 2,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != 2 {
		t.Fatalf("got %d epochs, want 2", len(rep.Epochs))
	}
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	prom := sb.String()
	for _, name := range []string{"qos_host_delivered_total", "qos_link_tx_packets_total", "qos_session_accepted_total"} {
		if !strings.Contains(prom, name) {
			t.Errorf("scrape rendering lacks %s after a metrics-enabled soak", name)
		}
	}
	// Rotation must fold both epochs in: delivered packets on the scrape
	// must cover at least both epochs' unique deliveries.
	var total uint64
	for _, ep := range rep.Epochs {
		total += ep.Results.Conservation.DeliveredUnique
	}
	if total == 0 {
		t.Fatal("soak delivered nothing")
	}
	delivered := promCounterSum(t, prom, "qos_host_delivered_total")
	if delivered < float64(total) {
		t.Errorf("scrape shows %.0f delivered, soak delivered %d across epochs — rotation lost counts",
			delivered, total)
	}
}

// promCounterSum sums every sample of one counter family in a Prometheus
// text rendering.
func promCounterSum(t *testing.T, prom, name string) float64 {
	t.Helper()
	var sum float64
	found := false
	for _, ln := range strings.Split(prom, "\n") {
		if !strings.HasPrefix(ln, name) || strings.HasPrefix(ln, "#") {
			continue
		}
		fields := strings.Fields(ln)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", ln, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("no samples for %s", name)
	}
	return sum
}
