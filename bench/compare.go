package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// setFile is one set of runs: every workload once, untraced. Two of
// them are what `bench compare` reads and what --sets 2 writes.
type setFile struct {
	Seed      int64                        `json:"seed"`
	Seconds   int                          `json:"seconds"`
	Workloads map[string]map[string]metric `json:"workloads"`
}

// runSets runs every workload `sets` times, writes each set to
// out/set-<n>.json and compares them. It returns the process exit code.
func runSets(sets int, seed int64, seconds int, out string) int {
	if sets < 2 {
		fmt.Fprintln(os.Stderr, "bench: --sets needs at least 2 sets to compare")
		return 2
	}
	var files []*setFile
	for n := 1; n <= sets; n++ {
		sf := &setFile{Seed: seed, Seconds: seconds, Workloads: make(map[string]map[string]metric)}
		for i := range specs {
			res, err := runOne(&specs[i], fullPlan(seconds), seed, false, out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			sf.Workloads[specs[i].name] = res.Metrics
		}
		if err := sf.write(filepath.Join(out, fmt.Sprintf("set-%d.json", n))); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		files = append(files, sf)
	}
	return compareSets(files)
}

func (sf *setFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareMain is `bench compare a.json b.json [...]`.
func compareMain(paths []string) int {
	if len(paths) < 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare a.json b.json [more.json ...]")
		return 2
	}
	var files []*setFile
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sf := &setFile{}
		if err := json.Unmarshal(data, sf); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p, err)
			return 2
		}
		files = append(files, sf)
	}
	return compareSets(files)
}

// compareSets prints, for every workload and end-to-end metric, the
// value in each set, their median and the gap between the extremes as a
// share of that median. It returns 1 when a gap exceeds the metric's own
// regression bound: sets of the same code that disagree by more than
// the bound mean the bound cannot tell a regression from noise.
//
// setup_s is printed and not judged. On et1_udp_fsync it is 125 rounds
// of real fsync and follows the state of the disk from one run to the
// next (0.11 to 0.29 s on one machine within an hour); only its median
// over many runs repeats, which is what the driver compares.
func compareSets(files []*setFile) int {
	names := make([]string, 0, len(files[0].Workloads))
	for w := range files[0].Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	bad := 0
	fmt.Printf("%-16s %-20s %14s %14s %8s %7s\n", "workload", "metric", "values", "median", "gap", "bound")
	for _, w := range names {
		for _, d := range endToEnd {
			var vals []float64
			for _, sf := range files {
				m, ok := sf.Workloads[w][d.name]
				if !ok {
					fmt.Fprintf(os.Stderr, "bench: a set lacks %s on %s\n", d.name, w)
					return 2
				}
				vals = append(vals, m.Value)
			}
			sorted := samples(vals).sorted()
			med := (sorted[(len(sorted)-1)/2] + sorted[len(sorted)/2]) / 2
			gap := ratio(sorted[len(sorted)-1]-sorted[0], med)
			verdict := ""
			switch {
			case d.name == "setup_s":
				verdict = "  (not judged)"
			case gap > d.bound:
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-16s %-20s %14s %14.3f %7.1f%% %6.0f%%%s\n", w, d.name+" ("+d.unit+")", joinValues(vals), med, 100*gap, 100*d.bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d metric(s) differ between sets of the same code by more than their bound\n", bad)
		return 1
	}
	fmt.Println("every end-to-end metric agrees between the sets within its bound")
	return 0
}

func joinValues(vals []float64) string {
	s := ""
	for i, v := range vals {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", v)
	}
	return s
}

// runSmoke drives every workload (or only the named one) end to end,
// untraced and traced, with one-second phases and a 50-transaction
// history: a check that the harness, the wrappers and the correctness
// check work, not a measurement.
func runSmoke(only string, seed int64, out string) error {
	for i := range specs {
		if only != "" && specs[i].name != only {
			continue
		}
		for _, traced := range []bool{false, true} {
			if _, err := runOne(&specs[i], smokePlan(), seed, traced, out); err != nil {
				return err
			}
		}
	}
	return nil
}
