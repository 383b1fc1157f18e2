// Command bench is distlog's benchmark: a committed ET1 transaction and
// a node restart, measured end to end on four workloads, and layer by
// layer on a traced run of the same workload. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds: 16 s of commit phase
// and 40 restarts per run.
const defaultSeconds = 24

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "workload to run: "+workloadNames()+" (empty with --sets or --smoke: all of them)")
		seed     = flag.Int64("seed", 1, "seed of the ET1 generators and the in-memory network")
		seconds  = flag.Int("seconds", defaultSeconds, "measured time of a run: two thirds commit phase, one third restart phase")
		trace    = flag.Int("trace", 0, "1 runs through the tracing wrappers and reports the per-layer metrics instead of the end-to-end ones")
		smoke    = flag.Bool("smoke", false, "one-second phases and a 50-transaction history on every workload, traced and untraced, correctness check included")
		sets     = flag.Int("sets", 0, "run every workload this many times (2 is the self-check) and fail if an end-to-end metric differs between the sets by more than its bound")
		out      = flag.String("out", "bench/out", "directory the traced run writes its spans, layer table and model table to")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	switch {
	case *smoke:
		fatalIf(runSmoke(*workload, *seed, *out))
	case *sets > 0:
		os.Exit(runSets(*sets, *seed, *seconds, *out))
	default:
		sp, err := findSpec(*workload)
		fatalIf(err)
		res, err := runOne(sp, fullPlan(*seconds), *seed, *trace != 0, *out)
		fatalIf(err)
		line, err := json.Marshal(res)
		fatalIf(err)
		fmt.Println(string(line))
	}
}

// runOne runs one workload once, prints its table and returns the
// result line. Any failed operation or broken check is an error: these
// workloads are fault-free, so a run that saw one has nothing to report.
func runOne(sp *spec, pl plan, seed int64, traced bool, out string) (*result, error) {
	m, err := execute(sp, pl, seed, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	defs, values := endToEnd, m.endToEndValues()
	var rep *layerReport
	if traced {
		defs = perLayer
		if values, rep, err = m.perLayerValues(); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
	}
	metrics, err := fill(defs, values)
	if err != nil {
		return nil, err
	}
	text := table(sp, m, traced, defs, metrics)
	if traced {
		text += strings.Join(rep.account, "\n") + "\n" + strings.Join(rep.model, "\n") + "\n"
		if err := rep.write(out, sp.name, seed, text); err != nil {
			return nil, err
		}
	}
	fmt.Print(text)
	return &result{Correct: true, Attempted: m.attempted(), Failed: 0, Metrics: metrics}, nil
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return strings.Join(names, ", ")
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
