// Command perfbench is the repository's end-to-end benchmark. One run
// drives one workload against the program built from the same
// checkout, checks every result against a reference, and prints every
// metric with its unit; the last line of standard output is a JSON
// object {correct, attempted, failed, metrics}.
//
//	bash perfbench/run.sh --workload serve-inline-mtx --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With --trace 1 the run is a separate traced run: it times
// calls into each layer's public functions from outside the program and
// reports the per-layer metrics. README.md in this directory lists the
// workloads, the metrics and which end-to-end metric each layer metric
// should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's contract with BENCHMARK.json
// (TestMetricTablesMatchBenchmarkJSON keeps them in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the program sees, reported by
// every workload with tracing off.
var endToEnd = []metricDef{
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, one group per module. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"mtx.read_ms", "ms"},
	{"mtx.read_mb_per_s", "MB/s"},
	{"serial.write_ms", "ms"},
	{"sparse.fingerprint_ms", "ms"},
	{"store.put_values_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.hit_ratio", "ratio"},
	{"store.evictions", "count"},
	{"core.plan_build_ms", "ms"},
	{"core.plans_built", "count"},
	{"core.plan_hit_ratio", "ratio"},
	{"core.execute_ms", "ms"},
	{"core.flops", "count"},
	{"core.mflops_per_s", "Mflop/s"},
	{"parallel.speedup_2t", "ratio"},
	{"parallel.imbalance", "ratio"},
	{"parallel.busy_share", "ratio"},
	{"graph.tc_ms", "ms"},
	{"graph.ktruss_ms", "ms"},
	{"graph.bc_ms", "ms"},
	{"graph.ktruss_iterations", "count"},
	{"serve.request_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"serve.admission_queued", "count"},
	{"serve.shed", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_per_op", "count"},
	{"trace.overhead", "ratio"},
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	serveBin string
	work     string
}

// outcome is what a workload run measured.
type outcome struct {
	// attempted and failed count the timed phase's operations.
	attempted, failed int
	// checked counts every result compared with the reference: set-up,
	// warm-up and timed operations alike.
	checked int
	// setupFailures counts failed operations outside the timed phase
	// (cold starts, warm-up); any makes the run incorrect.
	setupFailures int
	metrics       map[string]float64
	// samples is the sample count behind each metric.
	samples map[string]int
	// meta carries run facts that are not metrics: the tail percentile
	// reported, the program's GOMAXPROCS, the memory budget.
	meta map[string]any
	// firstFailure describes the first failed operation, if any.
	firstFailure string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}, meta: map[string]any{}}
}

func (o *outcome) set(name string, value float64, samples int) {
	o.metrics[name] = value
	o.samples[name] = samples
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"serve-inline-mtx":  runServeInline,
	"serve-byref-delta": runServeByref,
	"apps-rmat":         runApps,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == appsWorkerArg {
		if err := appsWorkerMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench apps worker:", err)
			os.Exit(1)
		}
		return
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 25, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "mspgemm-serve binary built from the checkout under test")
	flag.StringVar(&cfg.work, "work", "", "directory for generated inputs, traces and the run history")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fatalf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	case trace != 0 && trace != 1:
		fatalf("--trace must be 0 or 1")
	case cfg.seconds < 2:
		fatalf("--seconds must be at least 2")
	case cfg.serveBin == "" || cfg.work == "":
		fatalf("-serve-bin and -work are required; run through perfbench/run.sh")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	out, err := run(ctx, cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	if err := report(os.Stdout, cfg, out, time.Since(start)); err != nil {
		fatalf("%v", err)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// historyRecord is one run as appended to the run history.
type historyRecord struct {
	Workload string             `json:"workload"`
	Source   string             `json:"source"`
	Trace    bool               `json:"trace"`
	Seed     uint64             `json:"seed"`
	Time     string             `json:"time"`
	Metrics  map[string]float64 `json:"metrics"`
}

// report prints the run: a human-readable table, the run metadata as
// one JSON line, each metric's median and quartiles across the runs of
// the same workload and source recorded so far, and last the result
// line.
func report(w io.Writer, cfg config, out *outcome, wall time.Duration) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := resultLine{
		Correct:   out.failed == 0 && out.setupFailures == 0 && out.checked > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricJSON{},
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v wall=%.1fs\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, wall.Seconds())
	for _, d := range defs {
		// A layer the workload does not exercise reports 0; an
		// end-to-end metric must always be measured.
		v, ok := out.metrics[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("%s did not measure %s", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-26s %14.6g %-8s n=%d\n", d.name, v, d.unit, out.samples[d.name])
	}
	fmt.Fprintf(w, "  fail_ratio %.6g (%d failed of %d attempted; %d results checked; %d set-up failures)\n",
		failRatio(out.attempted, out.failed), out.failed, out.attempted, out.checked, out.setupFailures)
	if out.firstFailure != "" {
		fmt.Fprintf(w, "  first failure: %s\n", out.firstFailure)
	}

	src := sourceIdentity()
	meta := runMeta(cfg, src)
	for k, v := range out.meta {
		meta[k] = v
	}
	meta["fail_ratio"] = failRatio(out.attempted, out.failed)
	meta["results_checked"] = out.checked
	samples := map[string]int{}
	for _, d := range defs {
		samples[d.name] = out.samples[d.name]
	}
	meta["samples"] = samples
	mj, err := json.Marshal(map[string]any{"perfbench_meta": meta})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", mj)

	if res.Correct {
		metrics := map[string]float64{}
		for _, d := range defs {
			metrics[d.name] = out.metrics[d.name]
		}
		rec := historyRecord{Workload: cfg.workload, Source: src.digest, Trace: cfg.trace, Seed: cfg.seed,
			Time: time.Now().UTC().Format(time.RFC3339), Metrics: metrics}
		if err := printHistory(w, filepath.Join(cfg.work, "history.jsonl"), rec, defs); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run history: %v\n", err)
		}
	}

	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printHistory appends rec to the history file and prints, for every
// metric, the median and quartiles over the recorded runs of the same
// workload, source digest and trace mode: the steadiness evidence comes
// from the benchmark's own output.
func printHistory(w io.Writer, path string, rec historyRecord, defs []metricDef) error {
	var runs []historyRecord
	if data, err := os.ReadFile(path); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var r historyRecord
			if line == "" || json.Unmarshal([]byte(line), &r) != nil {
				continue
			}
			if r.Workload == rec.Workload && r.Source == rec.Source && r.Trace == rec.Trace {
				runs = append(runs, r)
			}
		}
	}
	runs = append(runs, rec)
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "across %d recorded run(s) of %s at source %.12s (median, quartiles, IQR/median):\n", len(runs), rec.Workload, rec.Source)
	for _, d := range defs {
		vals := make([]float64, 0, len(runs))
		for _, r := range runs {
			if v, ok := r.Metrics[d.name]; ok {
				vals = append(vals, v)
			}
		}
		q1, med, q3 := quartiles(vals)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(w, "  %-26s median %-12.6g q1 %-12.6g q3 %-12.6g iqr/median %.4f\n", d.name, med, q1, q3, spread)
	}
	return nil
}

// runMeta is the run metadata every output carries.
func runMeta(cfg config, src sourceID) map[string]any {
	return map[string]any{
		"workload":            cfg.workload,
		"seed":                cfg.seed,
		"seconds":             cfg.seconds,
		"trace":               cfg.trace,
		"cpu_model":           cpuModel(),
		"nproc":               runtime.NumCPU(),
		"harness_gomaxprocs":  runtime.GOMAXPROCS(0),
		"harness_go_version":  runtime.Version(),
		"commit":              src.commit,
		"source_digest":       src.digest,
		"defaults_under_test": "MSA scheme, Auto schedule, calibration off",
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
