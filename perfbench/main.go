// Command perfbench is the repository benchmark: one process that runs a
// named workload against the public APIs of the replay pipeline and the
// sweep service, checks the outputs, and prints its metrics. See README.md
// for the workloads, the metrics and the layer -> metric -> workload map.
//
//	bash perfbench/run.sh --workload figures-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the last stdout line reports the end-to-end metrics; with
// --trace 1 it reports the per-layer metrics of a traced run, whose span
// tree is written under the -out directory. The process exits 1 when any
// output check fails (after printing the result) and 2 on a usage error.
// Failed operations (a job the service answered with an error) count in
// failed_share but leave the outputs correct.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (README.md defines each per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"mstep_per_s", "Mstep/s"},
	{"first_row_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string // working directory, removed at exit
}

// outcome collects a workload's results: operations and output checks,
// metric values, notes. failed counts failed operations and failed checks;
// badChecks the failed checks alone, which make the result incorrect.
type outcome struct {
	attempted, failed int64
	badChecks         int64
	failures          []string
	values            map[string]float64
	notes             map[string]string
	host              HostShape
	rec               *Recorder // the traced run's spans, or nil
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, notes: map[string]string{}, host: hostShape()}
}

// ops counts n attempted operations (cells, jobs) of which bad failed.
func (o *outcome) ops(n, bad int) {
	o.attempted += int64(n)
	o.failed += int64(bad)
}

// opFailed records why one operation failed (count it with ops).
func (o *outcome) opFailed(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// check counts one attempted output check, failing it with msg when !ok.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		o.badChecks++
		o.failures = append(o.failures, "check: "+fmt.Sprintf(format, args...))
	}
	return ok
}

// set records a metric value.
func (o *outcome) set(name string, v float64) { o.values[name] = v }

type workloadFunc func(o *outcome, opt options) error

var workloads = map[string]workloadFunc{
	"figures-cold": figuresCold,
	"serve-mix":    serveMix,
	"long-trace":   longTrace,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: figures-cold, serve-mix or long-trace")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "seconds of timed work per run")
		traced  = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for working data and span trees")
	)
	flag.Parse()
	wf, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	work := filepath.Join(*out, fmt.Sprintf("work-%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	opt := options{workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1, work: work}
	o := newOutcome()
	if opt.trace {
		o.rec = NewRecorder(fmt.Sprintf("%s-seed%d-%d", *name, *seed, time.Now().UnixNano()))
		zeroLayers(o)
	}
	if err := wf(o, opt); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}

	defs := endToEnd
	if opt.trace {
		defs = perLayer()
	}
	if err := report(os.Stdout, o, opt, defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.rec != nil {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := writeSpans(path, o.rec.Spans(), o.host); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "perfbench: wrote", path)
	}
	if o.badChecks > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// result is the last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable table, the host shape, and the result
// line. Every metric in defs is printed; one the workload did not set is a
// bug in the benchmark.
func report(w io.Writer, o *outcome, opt options, defs []metricDef) error {
	res := result{Correct: o.badChecks == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		note := ""
		if n := o.notes[d.Name]; n != "" {
			note = "  (" + n + ")"
		}
		fmt.Fprintf(w, "  %-40s %14.6g %s%s\n", d.Name, v, d.Unit, note)
	}
	fmt.Fprintf(w, "  %-40s %14.6g share  (%d failed of %d attempted)\n", "failed_share",
		ratioOr0(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)
	for _, f := range o.failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	host, err := json.Marshal(o.host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", host)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
