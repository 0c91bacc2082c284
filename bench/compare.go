package main

import (
	"fmt"
	"io"
	"math"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdicts of one workload x metric row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// side is one result set's timed runs of one workload x metric.
type side struct {
	values []float64
	median float64
	spread float64 // (max - min) / median over the repeats; 0 for a single run
}

func newSide(values []float64) side {
	s := side{values: values, median: median(values)}
	if len(values) > 1 {
		sorted := sortedCopy(values)
		s.spread = ratio(sorted[len(sorted)-1]-sorted[0], math.Abs(s.median))
	}
	return s
}

// judge applies one metric's bound to the two sides. B regressed when its
// median is worse than A's by more than the bound. Otherwise, when either
// side's own spread is wider than the bound, the row is unresolved, not
// unchanged, unless every run of B reads better than every run of A.
func judge(m metricSpec, a, b side) (verdict string, worse float64) {
	sign := 1.0 // lower is better
	if m.Better == "higher" {
		sign = -1
	}
	worse = ratio(sign*(b.median-a.median), math.Abs(a.median))
	switch {
	case worse > m.Bound:
		return verdictRegressed, worse
	case (a.spread > m.Bound || b.spread > m.Bound) && !allBetter(sign, a.values, b.values):
		return verdictUnresolved, worse
	}
	return verdictOK, worse
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(sign float64, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

// timedValues collects a metric from the timed runs of one workload.
func (set *resultSet) timedValues(workload, name string) []float64 {
	var out []float64
	for _, r := range set.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// failShare is failed over attempted across a workload's runs, both passes.
func (set *resultSet) failShare(workload string) float64 {
	var failed, attempted int
	for _, r := range set.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// compareFiles prints one row per workload x end-to-end metric and returns
// non-zero on a regression or a higher fail_share.
func compareFiles(stdout, stderr io.Writer, specPath, pathA, pathB string) int {
	var spec benchmarkSpec
	var a, b resultSet
	for _, f := range []struct {
		path string
		dst  any
	}{{specPath, &spec}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.dst); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	code := compareSets(stdout, spec, &a, &b)
	if code != 0 {
		fmt.Fprintln(stderr, "bench: B regressed against A")
	}
	return code
}

func compareSets(w io.Writer, spec benchmarkSpec, a, b *resultSet) int {
	code := 0
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %8s %8s %8s %8s  %s\n",
		"workload", "metric", "A", "B", "worse", "bound", "spreadA", "spreadB", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, sb := newSide(a.timedValues(wl.Name, m.Name)), newSide(b.timedValues(wl.Name, m.Name))
			if len(sa.values) == 0 || len(sb.values) == 0 {
				fmt.Fprintf(w, "%-14s %-16s missing from a result file\n", wl.Name, m.Name)
				code = 1
				continue
			}
			verdict, worse := judge(m, sa, sb)
			if verdict == verdictRegressed {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, m.Name, sa.median, sb.median, 100*worse, 100*m.Bound, 100*sa.spread, 100*sb.spread, verdict)
		}
		fa, fb := a.failShare(wl.Name), b.failShare(wl.Name)
		verdict := verdictOK
		if fb > fa {
			verdict, code = verdictRegressed, 1
		}
		fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %35s  %s\n", wl.Name, "fail_share", fa, fb, "", verdict)
	}
	return code
}
