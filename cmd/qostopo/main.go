// Command qostopo inspects a topology: wiring summary, path diversity and
// example routes. It is the debugging companion for experiment
// configurations.
//
// Examples:
//
//	qostopo -topo paper
//	qostopo -topo tree:4,3 -route 0:63
package main

import (
	"flag"
	"fmt"
	"strings"

	"deadlineqos/internal/cli"
	"deadlineqos/internal/faults"
	"deadlineqos/internal/report"
	"deadlineqos/internal/topology"
)

func main() { cli.Main("qostopo", run) }

var (
	topoSpec = flag.String("topo", "paper", "topology: paper|small|clos:L,D,U|tree:K,N|single:N")
	route    = flag.String("route", "", "print all minimal paths for a pair, e.g. 0:127")
)

func run() error {
	topo, err := cli.ParseTopology(*topoSpec)
	if err != nil {
		return err
	}

	fmt.Printf("topology %s: %d hosts, %d switches\n\n",
		topo.Name(), topo.Hosts(), topo.Switches())

	// Wiring census: host attachments and each side of a switch-switch
	// cable count as one wired port.
	ports, links := 0, len(faults.WiredLinks(topo))
	radixCount := map[int]int{}
	for sw := 0; sw < topo.Switches(); sw++ {
		radixCount[topo.Radix(sw)]++
		ports += topo.Radix(sw)
	}
	t := report.NewTable("wiring census", "metric", "value")
	for radix, n := range radixCount {
		t.Add(fmt.Sprintf("switches with %d ports", radix), fmt.Sprintf("%d", n))
	}
	t.Add("wired switch ports", fmt.Sprintf("%d", links))
	t.Add("unwired switch ports", fmt.Sprintf("%d", ports-links))
	fmt.Println(t)

	// Path diversity statistics over a sample of pairs.
	minPaths, maxPaths, sumPaths, pairs := 1<<30, 0, 0, 0
	maxHops := 0
	step := topo.Hosts()/16 + 1
	for src := 0; src < topo.Hosts(); src += step {
		for dst := 0; dst < topo.Hosts(); dst += step {
			if src == dst {
				continue
			}
			n := topo.PathCount(src, dst)
			if n < minPaths {
				minPaths = n
			}
			if n > maxPaths {
				maxPaths = n
			}
			sumPaths += n
			pairs++
			if h := len(topo.Path(src, dst, 0)); h > maxHops {
				maxHops = h
			}
		}
	}
	d := report.NewTable("path diversity (sampled pairs)", "metric", "value")
	d.Add("sampled pairs", fmt.Sprintf("%d", pairs))
	d.Add("min minimal paths", fmt.Sprintf("%d", minPaths))
	d.Add("max minimal paths", fmt.Sprintf("%d", maxPaths))
	d.Add("avg minimal paths", fmt.Sprintf("%.1f", float64(sumPaths)/float64(pairs)))
	d.Add("max switch hops", fmt.Sprintf("%d", maxHops))
	fmt.Println(d)

	if *route != "" {
		var src, dst int
		if _, err := fmt.Sscanf(*route, "%d:%d", &src, &dst); err != nil {
			return fmt.Errorf("bad route spec %q (want SRC:DST)", *route)
		}
		if src < 0 || dst < 0 || src >= topo.Hosts() || dst >= topo.Hosts() || src == dst {
			return fmt.Errorf("route pair %d:%d out of range", src, dst)
		}
		fmt.Printf("minimal paths %d -> %d:\n", src, dst)
		for c := 0; c < topo.PathCount(src, dst); c++ {
			fmt.Printf("  choice %2d: %s\n", c, renderPath(topo.Path(src, dst, c)))
		}
	}
	return nil
}

func renderPath(hops []topology.Hop) string {
	var parts []string
	for _, h := range hops {
		parts = append(parts, fmt.Sprintf("sw%d.p%d", h.Switch, h.OutPort))
	}
	return strings.Join(parts, " -> ")
}
