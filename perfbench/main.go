// Command perfbench is rushprobe's end-to-end benchmark. It runs one
// workload from a seed against programs built from this checkout,
// checks that their outputs are correct, and prints the metrics named
// in BENCHMARK.json as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (measured with no
// tracing); with -trace 1 a separate traced run of the same workload
// produces the per-layer ones. The line before it is a report: the
// machine and source stamp, the workload's metrics under the names
// LAYERS.md uses, and every correctness check.
//
// perfbench measures each layer from outside. It times calls into
// public surfaces (the rushprobed HTTP API, rushprobe.SimulateFleet,
// rushprobe.Fleet) and reads counters the program already exports
// (/metrics, /v1/healthz, /debug/traces, the co-sim summary); it adds
// no tracing inside the program. Run it through run.sh, which builds
// everything first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric and its unit, as BENCHMARK.json lists it.
type metricDef struct {
	name, unit string
}

// endToEnd are the bounded metrics a user of the system sees, reported
// by every workload in its own unit of work (see LAYERS.md):
//   - setup_s: program start to first healthy response, median of
//     several starts;
//   - units_per_cpu_s: work done at saturation per CPU-second of the
//     program's processes (ingest: observations accepted; plans: fresh
//     plans served; cosim: node-epochs simulated);
//   - peak_rss_mb: VmHWM of the program's processes, summed.
//
// Wall-clock rates and latencies are in the report line only: on a
// shared 2-vCPU host whose steal time swung between 0 and 28%, ten
// runs of one build spread their p50 latency by 37% and their p90 by
// more than 100%, past any bound a regression gate can use.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"units_per_cpu_s", "1/cpu_s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, named after the modules. A
// layer a workload does not run reports 0; LAYERS.md records which
// workload each one is meant for and which end-to-end metric it moves.
var perLayer = []metricDef{
	{"rushprobed.observe_self_us", "us"},
	{"rushprobed.schedule_self_us", "us"},
	{"rushprobed.client_gap_us", "us"},
	{"rushprobed.gc_pause_ms", "ms"},
	{"rushprobed.gc_cycles", "count"},
	{"rushprobed.heap_alloc_mb", "MB"},
	{"fleet.ingest_batch_us", "us"},
	{"fleet.schedule_us", "us"},
	{"fleet.plan_cache_hit_ratio", "ratio"},
	{"fleet.cosim_ingest_s", "s"},
	{"fleet.cosim_advance_s", "s"},
	{"fleet.cosim_schedule_s", "s"},
	{"opt.solves", "count"},
	{"opt.solve_ms", "ms"},
	{"sim.cosim_self_s", "s"},
	{"des.cpu_share", "ratio"},
	{"sim.cpu_share", "ratio"},
	{"opt.cpu_share", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"snaplog.restore_s", "s"},
	{"snaplog.compact_s", "s"},
	{"snaplog.bytes_per_node", "B"},
	{"snaplog.delta_ms", "ms"},
	{"snaplog.delta_nodes", "count"},
	{"snaplog.delta_bytes", "B"},
	{"shardroute.hop_us", "us"},
	{"shardroute.batch_ms", "ms"},
	{"shardroute.skew", "ratio"},
	{"harness.gen_lag_p99_ms", "ms"},
	{"harness.sent", "count"},
	{"harness.trace_overhead_pct", "%"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string // checkout root, where rushprobed was built from
	bin      string // directory holding the rushprobed binary
	work     string // generated inputs and scratch files
}

// outcome is what a workload returns: operation counts, correctness
// checks, and metrics by name (end-to-end or per-layer, per cfg.trace),
// plus the issue-named figures for the report.
type outcome struct {
	attempted, failed int64
	checks            []check
	metrics           map[string]float64
	report            map[string]float64
}

// check is one correctness check's verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"ingest": runIngest,
	"plans":  runPlans,
	"cosim":  runCosim,
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		cfg   config
		trace int
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: ingest, plans or cosim")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&cfg.seconds, "seconds", 25, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "checkout root")
	fs.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the built rushprobed")
	fs.StringVar(&cfg.work, "work", ".bench_build/work", "directory for generated inputs")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		return 2, fmt.Errorf("unknown -workload %q (want ingest, plans or cosim)", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds < 4 {
		return 2, errors.New("-seconds must be at least 4")
	}
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return 1, err
	}
	stopOnSignal()

	out, err := wl(cfg)
	if err != nil {
		return 1, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return 1, fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, c := range out.checks {
		if !c.OK {
			res.Correct = false
			res.Failed++
		}
	}
	res.Attempted += int64(len(out.checks))
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	rep := report{
		Stamp:      newStamp(cfg.root),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		FailedFrac: float64(res.Failed) / float64(res.Attempted),
		Metrics:    out.report,
		Checks:     out.checks,
	}
	if err := writeJSONLine(stdout, rep); err != nil {
		return 1, err
	}
	if err := writeJSONLine(stdout, res); err != nil {
		return 1, err
	}
	if !res.Correct {
		return 1, errors.New("correctness check failed")
	}
	return 0, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output, the contract with whoever runs
// the benchmark.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before the result: what ran, where, and every
// figure under its LAYERS.md name.
type report struct {
	Stamp      stamp              `json:"stamp"`
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	FailedFrac float64            `json:"failed_frac"`
	Metrics    map[string]float64 `json:"metrics"`
	Checks     []check            `json:"checks"`
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// stopOnSignal stops every started process when the harness itself is
// interrupted, so an aborted run leaves no daemon behind.
func stopOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		stopAll()
		os.Exit(130)
	}()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// phaseSplit divides a run's measured seconds between an open-loop
// phase of samples requests at rate per second (at most two thirds of
// the run) and a closed-loop phase that gets the rest, returning the
// open loop's request count and the closed loop's duration.
func phaseSplit(seconds int, rate float64, samples int) (int, time.Duration) {
	total := time.Duration(seconds) * time.Second
	open := time.Duration(float64(samples) / rate * float64(time.Second))
	open = min(open, total*2/3)
	return int(rate * open.Seconds()), total - open
}

// procs is the worker and connection count every workload uses: one
// per CPU the harness may run on.
func procs() int { return runtime.GOMAXPROCS(0) }
