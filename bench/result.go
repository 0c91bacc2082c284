package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// relErrCeiling is the hard accuracy limit of the `fast` preset: a run whose
// worst relative error exceeds it is incorrect, whatever its speed.
const relErrCeiling = 5e-3

// maxEnergyDrift bounds |dE/E0| over a step_plummer run.
const maxEnergyDrift = 1e-9

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one pass of one workload produced. Metrics holds the
// metrics BENCHMARK.json names for the pass (every workload reports all of
// them); Extras holds the per-layer metrics that exist on this workload
// only, which the benchmark prints and stores but BENCHMARK.json cannot
// list, because it asks every workload for every metric it names.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   int               `json:"samples"`
	Metrics   map[string]metric `json:"metrics"`
	Extras    map[string]metric `json:"extras,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
}

func newResult(workload string, cfg runConfig, trace bool) *result {
	return &result{
		Workload: workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: trace, Correct: true,
		Metrics: make(map[string]metric), Extras: make(map[string]metric),
	}
}

func (r *result) put(name string, v float64, unit string) {
	r.Metrics[name] = metric{r.finite(name, v), unit}
}

func (r *result) extra(name string, v float64, unit string) {
	r.Extras[name] = metric{r.finite(name, v), unit}
}

// finite keeps a value JSON can carry: a NaN or an infinity is a failed
// measurement, reported as such and stored as 0.
func (r *result) finite(name string, v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("%s is not a finite number", name)
		return 0
	}
	return v
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect and says why.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.note("INCORRECT: "+format, args...)
}

// failShare is failed over attempted operations.
func (r *result) failShare() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// opRec is one operation of a timed section.
type opRec struct {
	at        time.Duration // when it began (closed loop) or was due (open loop), from the start of the section
	latencyMS float64
	ok        bool
	// unlike marks an operation of another size than the one the latency
	// metrics are defined over (fleet_open's heavy tenant): it counts as an
	// operation, its latency is reported elsewhere.
	unlike bool
}

// timed is what the timed section of a workload measured.
type timed struct {
	setupS    []float64 // seconds per fresh construction up to the first op
	ops       []opRec   // every operation attempted
	particles int64     // summed N of the successful operations
	use       usage
	relErr    float64  // RMS error on the probe system
	seeded    errStats // error of the seeded outputs, held against the ceiling
}

// putEndToEnd fills the end-to-end metrics. Every workload reports the same
// set; see README.md for the definitions.
func (r *result) putEndToEnd(t timed) {
	var all []float64
	perWindow := make([][]float64, len(t.use.windowCPU))
	opsIn := make([]int, len(t.use.windowCPU))
	for _, op := range t.ops {
		k := t.use.windowOf(op.at)
		opsIn[k]++
		if op.ok && !op.unlike {
			all = append(all, op.latencyMS)
			perWindow[k] = append(perWindow[k], op.latencyMS)
		}
	}
	var p50, cpu []float64
	for k := range perWindow {
		if len(perWindow[k]) > 0 {
			p50 = append(p50, median(perWindow[k]))
		}
		if opsIn[k] > 0 {
			cpu = append(cpu, ms(t.use.windowCPU[k])/float64(opsIn[k]))
		}
	}
	sort.Float64s(all)
	r.Samples = len(all)
	r.Attempted = len(t.ops)
	r.put("setup_s", median(t.setupS), "s")
	r.put("latency_p50_ms", median(p50), "ms")
	r.put("particles_per_s", float64(t.particles)/t.use.wall.Seconds(), "1/s")
	r.put("cpu_ms_per_op", median(cpu), "ms")
	r.put("allocs_per_op", float64(t.use.mallocs)/float64(len(t.ops)), "count")
	r.put("mem_mb", t.use.heapMB, "MB")
	r.put("rel_err", t.relErr, "ratio")
	// The tail is no end-to-end metric: see README.md, "Demoted metrics".
	hp := highestPercentile(len(all))
	r.extra("latency_p90_ms", percentile(all, 90), "ms")
	if hp < 90 {
		r.note("only %d latency samples: the highest percentile with %d samples beyond it is p%g, so latency_p90_ms is under-sampled", len(all), tailSamples, hp)
	}
	r.checkAccuracy(t.seeded)
}

// checkAccuracy holds the verification op against the ceiling.
func (r *result) checkAccuracy(e errStats) {
	if !(e.Worst <= relErrCeiling) {
		r.fail("worst relative error %.3e exceeds the ceiling %.1e", e.Worst, relErrCeiling)
	}
}

// print writes one line per metric, `workload metric value unit`, and the
// notes.
func (r *result) print(w io.Writer) {
	for _, set := range []map[string]metric{r.Metrics, r.Extras} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, name, set[name].Value, set[name].Unit)
		}
	}
	fmt.Fprintf(w, "%s fail_share %.6g ratio (%d failed of %d attempted", r.Workload, r.failShare(), r.Failed, r.Attempted)
	if !r.Trace {
		fmt.Fprintf(w, "; %d latency samples, enough for p%g", r.Samples, highestPercentile(r.Samples))
	}
	fmt.Fprintln(w, ")")
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%s # %s\n", r.Workload, n)
	}
}

// driverLine is the last line of standard output: the one JSON object the
// driver reads.
func (r *result) driverLine() string {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// resultSet is one full run of the benchmark: the file `-json` writes and
// `-compare` reads.
type resultSet struct {
	Header  header    `json:"header"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Runs    []*result `json:"runs"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
