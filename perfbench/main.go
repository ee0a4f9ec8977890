// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks every sampled answer for
// correctness, and prints its metrics as the last line of standard
// output:
//
//	perfbench -workload serve-locate -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// records spans around every call into a layer and prints the
// per-layer metrics instead (see README.md for both lists, the
// workloads and what each is expected to move).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"locate_pts_per_s", "pts/s"},
	{"locate_p50_ms", "ms"},
	{"locate_p90_ms", "ms"},
	{"patch_p50_ms", "ms"},
	{"patch_p90_ms", "ms"},
	{"schedule_p50_ms", "ms"},
	{"build_p50_s", "s"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer the workload does
// not reach reads 0.
var perLayer = []metricDef{
	{"serve.locate_handler_ms_p50", "ms"},
	{"serve.locate_wire_ms_p50", "ms"},
	{"serve.locate_unattributed_frac", "ratio"},
	{"serve.bytes_per_point", "B/pt"},
	{"serve.alloc_bytes_per_point", "B/pt"},
	{"serve.patch_handler_ms_p50", "ms"},
	{"serve.schedule_handler_ms_p50", "ms"},
	{"serve.locator_builds", "count"},
	{"resolve.batch_us_p50", "us"},
	{"resolve.batch_share", "ratio"},
	{"resolve.build_s", "s"},
	{"core.build_s", "s"},
	{"core.qds_build_s_p50", "s"},
	{"core.qds_build_s_max", "s"},
	{"core.uncertain_cells", "count"},
	{"core.locate_ns_hplus", "ns"},
	{"core.locate_ns_hminus", "ns"},
	{"core.locate_ns_huncertain", "ns"},
	{"core.share_hplus", "ratio"},
	{"core.share_hminus", "ratio"},
	{"core.share_huncertain", "ratio"},
	{"core.resolve_uncertain_us", "us"},
	{"core.heardby_us", "us"},
	{"shardindex.covers_miss_frac", "ratio"},
	{"shardindex.candidates_per_query", "count"},
	{"shardindex.candidates_ns", "ns"},
	{"kdtree.nearest_ns", "ns"},
	{"dynamic.apply_us_p50", "us"},
	{"dynamic.apply_us_p90", "us"},
	{"dynamic.rebuild_frac", "ratio"},
	{"dynamic.locate_ns_uniform", "ns"},
	{"dynamic.locate_ns_nonuniform", "ns"},
	{"dynamic.nonuniform_epoch_frac", "ratio"},
	{"sched.repair_ms_p50", "ms"},
	{"sched.build_ms_p50", "ms"},
	{"sched.repair_kept_frac", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms_sum", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.locate_p99_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // where a traced run writes its span dump; "" = nowhere
	sz       sizes
}

func main() {
	var cfg config
	var seconds, traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: serve-locate, serve-churn or library")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&cfg.outDir, "out", "", "directory for the span dump of a traced run (empty = none)")
	flag.Parse()
	if seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg.seconds = float64(seconds)
	cfg.trace = traceFlag == 1
	cfg.sz = fullSizes
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns its result; human-readable
// detail (per-operation failure fractions, the per-layer self-time
// table) goes to log.
func run(cfg config, log io.Writer) (result, error) {
	var rep *report
	var err error
	switch cfg.workload {
	case "serve-locate", "serve-churn":
		mk := serveLocateSpec
		if cfg.workload == "serve-churn" {
			mk = serveChurnSpec
		}
		var sp serveSpec
		if sp, err = mk(cfg); err == nil {
			rep, err = runServe(cfg, log, sp)
		}
	case "library":
		rep, err = runLibrary(cfg, log)
	default:
		return result{}, fmt.Errorf("unknown workload %q (want serve-locate, serve-churn or library)", cfg.workload)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return rep.result(cfg.trace, log)
}

// report accumulates one run's outcome.
type report struct {
	values     map[string]float64
	ops        map[string]*opCount
	mismatches []string
	// Network.HeardBy time spent verifying, a reference for core.heardby_us.
	heardDur time.Duration
	heardN   int64
}

type opCount struct{ attempted, failed int64 }

func newReport() *report {
	return &report{values: map[string]float64{}, ops: map[string]*opCount{}}
}

// op counts one operation of the given kind.
func (r *report) op(kind string, ok bool) {
	failed := int64(0)
	if !ok {
		failed = 1
	}
	r.count(kind, 1, failed)
}

// count adds attempted operations of a kind, failed of which failed.
func (r *report) count(kind string, attempted, failed int64) {
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.attempted += attempted
	c.failed += failed
}

// mismatch records a failed correctness check; any mismatch makes the
// run incorrect.
func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

func (r *report) result(traced bool, log io.Writer) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		c := r.ops[k]
		res.Attempted += c.attempted
		res.Failed += c.failed
		fmt.Fprintf(log, "ops_failed_frac[%s] = %d/%d = %.6f\n", k, c.failed, c.attempted, frac(float64(c.failed), float64(c.attempted)))
	}
	fmt.Fprintf(log, "ops_failed_frac = %d/%d = %.6f\n", res.Failed, res.Attempted, frac(float64(res.Failed), float64(res.Attempted)))
	for i, m := range r.mismatches {
		if i == 10 {
			fmt.Fprintf(log, "mismatch: ... %d more\n", len(r.mismatches)-i)
			break
		}
		fmt.Fprintln(log, "mismatch:", m)
	}
	fmt.Fprintf(log, "verification mismatches = %d\n", len(r.mismatches))
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(log, "%-34s %16.6g %s\n", d.name, v, d.unit)
	}
	res.Correct = len(r.mismatches) == 0
	return res, nil
}

// heapLiveMB forces two collections and reports the live heap. The
// heap_live_mb metric is the difference of two such readings, with and
// without the server (or the library's last resolver), so the
// benchmark's own inputs and records do not count.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
