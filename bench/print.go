package main

import (
	"fmt"
	"strings"
)

// table renders a run's metrics by name with unit, the sample counts
// its percentiles rest on, and what the workload is.
func table(sp *spec, m *measurement, traced bool, defs []metricDef, metrics map[string]metric) string {
	var b strings.Builder
	kind := "end-to-end, untraced"
	if traced {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(&b, "workload %s (%s)\n  %s\n", sp.name, kind, sp.why)
	fmt.Fprintf(&b, "  closed loop, %d client(s) x %d committer(s), K=%d, M=%d, N=%d\n",
		sp.clients, sp.committers, sp.streams, numServers, copiesN)
	fmt.Fprintf(&b, "  samples: %d set-ups, %d commits in %.1fs, %d restarts of a %d-transaction history\n",
		len(m.setups), m.commit.commits(), m.commit.elapsed.Seconds(), len(m.restarts), m.pl.historyTxns)
	if !supported(m.commit.commits(), 99) {
		fmt.Fprintf(&b, "  note: fewer than %d commits lie beyond p99; read it as a maximum, not a percentile\n", minBeyond)
	}
	for _, d := range defs {
		v := metrics[d.name]
		if v.Value == notApplicable && traced {
			fmt.Fprintf(&b, "  %-42s %14s %-6s\n", d.name, "n/a", d.unit)
			continue
		}
		fmt.Fprintf(&b, "  %-42s %14.3f %-6s\n", d.name, v.Value, d.unit)
	}
	return b.String()
}
