// Command qosreport archives and compares run results. Use qosim -json to
// write a snapshot; qosreport diff flags metric regressions between two
// snapshots — the building block of a performance CI gate for the
// simulator itself.
//
// Examples:
//
//	qosim -topo small -load 1.0 -json before.json
//	... change the code ...
//	qosim -topo small -load 1.0 -json after.json
//	qosreport -before before.json -after after.json -tolerance 0.1
//
// Exit status 1 when deltas beyond the tolerance exist (CI-friendly).
package main

import (
	"flag"
	"fmt"
	"os"

	"deadlineqos/internal/cli"
	"deadlineqos/internal/report"
	"deadlineqos/internal/stats"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "qosreport:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run() (code int, err error) {
	var (
		beforePath = flag.String("before", "", "baseline snapshot (from qosim -json)")
		afterPath  = flag.String("after", "", "candidate snapshot")
		tolerance  = flag.Float64("tolerance", 0.10, "relative change beyond which a metric is flagged")
	)
	prof := cli.ProfileFlags(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		return 0, err
	}
	defer func() {
		if serr := prof.Stop(); err == nil {
			err = serr
		}
	}()
	if *beforePath == "" || *afterPath == "" {
		return 0, fmt.Errorf("both -before and -after are required")
	}
	if *tolerance <= 0 {
		return 0, fmt.Errorf("tolerance must be positive")
	}

	before, err := load(*beforePath)
	if err != nil {
		return 0, err
	}
	after, err := load(*afterPath)
	if err != nil {
		return 0, err
	}

	deltas := stats.Compare(before, after, *tolerance)
	if len(deltas) == 0 {
		fmt.Printf("no metric moved more than %.0f%% between %q and %q\n",
			100**tolerance, before.Label, after.Label)
		return 0, nil
	}
	t := report.NewTable(
		fmt.Sprintf("metric changes beyond %.0f%% (%q -> %q)", 100**tolerance, before.Label, after.Label),
		"class", "metric", "before", "after", "change")
	for _, d := range deltas {
		t.Add(d.Class, d.Metric,
			fmt.Sprintf("%.4g", d.Before),
			fmt.Sprintf("%.4g", d.After),
			fmt.Sprintf("%+.1f%%", 100*d.Rel))
	}
	fmt.Println(t)
	return 1, nil
}

func load(path string) (*stats.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return stats.ReadSnapshot(f)
}
