// Command bench is the repository's layered benchmark: four workloads from
// the in-process solver to the replicated fleet, end-to-end metrics from a
// timed pass with tracing off, per-layer metrics and spans from a traced
// pass. See README.md in this directory.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload (default: all four)")
		seed    = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds = fs.Float64("seconds", 20, "length of each timed section; the traced pass measures a quarter of it")
		trace   = fs.Int("trace", -1, "with -workload: run one pass in this process, 0 = timed (end-to-end metrics), 1 = traced (per-layer metrics), and print the result as a last JSON line")
		pass    = fs.String("pass", "both", "passes to run when -trace is not given: timed, traced or both")
		repeat  = fs.Int("repeat", 1, "timed passes per workload; -compare judges the spread between them")
		jsonOut = fs.String("json", "", "write the results to this file")
		outDir  = fs.String("out", filepath.Join("bench", "out"), "directory for trace-<workload>.json and per-run results")
		compare = fs.Bool("compare", false, "compare two result files, A.json B.json, under the bounds of -spec")
		spec    = fs.String("spec", "BENCHMARK.json", "the benchmark definition -compare takes its bounds from")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(stdout, stderr, *spec, fs.Arg(0), fs.Arg(1))
	}
	if !(*seconds > 0) || *repeat < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -repeat at least 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, sz: fullSizes, outDir: *outDir}

	if *trace >= 0 {
		w, ok := findWorkload(*name)
		if !ok || *trace > 1 {
			fmt.Fprintf(stderr, "bench: -trace 0|1 needs -workload, one of %s\n", workloadNames())
			return 2
		}
		return runLeaf(stdout, stderr, w, cfg, *trace == 1, *jsonOut)
	}

	var todo []workload
	if *name == "" {
		todo = workloads()
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q, want one of %s\n", *name, workloadNames())
		return 2
	}
	if *pass != "timed" && *pass != "traced" && *pass != "both" {
		fmt.Fprintf(stderr, "bench: unknown pass %q, want timed, traced or both\n", *pass)
		return 2
	}
	return runAll(stdout, stderr, todo, cfg, *pass, *repeat, *jsonOut)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// printHeader records the host and warns when it is too busy to time on.
func printHeader(w io.Writer) header {
	h := readHeader()
	fmt.Fprintf(w, "# %s\n", h)
	if h.busy() {
		fmt.Fprintf(w, "# WARNING: 1-min load %.2f exceeds nproc/2 = %.1f; timings will be disturbed\n", h.Load1, float64(h.NProc)/2)
	}
	return h
}

// runLeaf runs one pass of one workload in this process. The last line of
// standard output is the JSON object the driver reads.
func runLeaf(stdout, stderr io.Writer, w workload, cfg runConfig, traced bool, jsonOut string) int {
	printHeader(stdout)
	var (
		res *result
		err error
	)
	if traced {
		tr := newTracer()
		if res, err = w.traced(cfg, tr); err == nil {
			printSelfTimes(stdout, w.name, tr.spans)
			path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
			if err = tr.write(path); err == nil {
				fmt.Fprintf(stdout, "%s # %d spans written to %s\n", w.name, len(tr.spans), path)
			}
		}
	} else {
		res, err = w.timed(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	res.print(stdout)
	if jsonOut != "" {
		if err := writeJSON(jsonOut, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, res.driverLine())
	return 0
}

// printSelfTimes prints each layer's self time: span durations minus the
// part their child spans cover.
func printSelfTimes(w io.Writer, workload string, spans []span) {
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	var total time.Duration
	for layer, d := range self {
		layers = append(layers, layer)
		total += d
	}
	sort.Strings(layers)
	for _, layer := range layers {
		fmt.Fprintf(w, "%s # self time %-6s %10.3f ms  %5.1f%%\n", workload, layer, ms(self[layer]), 100*ratio(float64(self[layer]), float64(total)))
	}
}

// runAll runs every (workload, pass) in a child process of its own, so no
// workload inherits another's heap, plan caches or scheduler state.
func runAll(stdout, stderr io.Writer, todo []workload, cfg runConfig, pass string, repeat int, jsonOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	set := resultSet{Header: printHeader(stdout), Seed: cfg.seed, Seconds: cfg.seconds}
	code := 0
	for _, w := range todo {
		var passes []int
		if pass != "traced" {
			for i := 0; i < repeat; i++ {
				passes = append(passes, 0)
			}
		}
		if pass != "timed" {
			passes = append(passes, 1)
		}
		for i, trace := range passes {
			file := filepath.Join(cfg.outDir, fmt.Sprintf("%s-%d-%d.json", w.name, trace, i))
			cmd := exec.Command(exe,
				"-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
				"-trace", fmt.Sprint(trace), "-json", file, "-out", cfg.outDir)
			cmd.Stderr = stderr
			out, err := cmd.StdoutPipe()
			if err == nil {
				err = cmd.Start()
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			lines := bufio.NewScanner(out)
			lines.Buffer(nil, 1<<20)
			for lines.Scan() {
				// The child's header repeats ours and its last line is for the driver.
				if l := lines.Text(); !strings.HasPrefix(l, "{") && !strings.HasPrefix(l, "# nproc=") {
					fmt.Fprintln(stdout, l)
				}
			}
			if err := cmd.Wait(); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			var res result
			if err := readJSON(file, &res); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			set.Runs = append(set.Runs, &res)
			if !res.Correct {
				code = 1
			}
		}
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, set); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if code != 0 {
		fmt.Fprintln(stderr, "bench: at least one run was incorrect or had failed operations")
	}
	return code
}
