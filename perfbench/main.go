// Command perfbench is the repository's benchmark: one process runs one
// workload for a fixed time, checks every output against slices.Sort,
// and prints every metric by name with its unit. The last line of
// standard output is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) reports the per-layer breakdown, keeps spans in memory
// and writes them to the output directory when it ends. Layers are
// measured from outside: by timing this program's calls into each
// layer's public functions and by reading counters the layers already
// export. See README.md for the workloads and metric definitions.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve-light --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"keys_per_s", "1/s"},
}

// perLayer lists the metrics a traced run reports on every workload. A
// layer the workload does not use reports zero.
var perLayer = []metricDef{
	{"driver.lag_p99_ms", "ms"},
	{"driver.lag_max_ms", "ms"},
	{"serve.submit_us_p50", "us"},
	{"serve.resident_ms_p50", "ms"},
	{"serve.resident_ms_p99", "ms"},
	{"serve.delivery_us_p50", "us"},
	{"serve.batch_mean", "count"},
	{"serve.flushes", "count"},
	{"serve.planner.for_ns", "ns"},
	{"serve.pad_ratio", "ratio"},
	{"serve.planner.family_share.product", "ratio"},
	{"serve.planner.family_share.multiway", "ratio"},
	{"serve.planner.family_share.periodic", "ratio"},
	{"serve.store.acquire_ns", "ns"},
	{"serve.store.hit_ratio", "ratio"},
	{"serve.store.evictions", "count"},
	{"schedule.compile_ms", "ms"},
	{"schedule.cols_ns_per_set", "ns"},
	{"schedule.cols_ns_per_set.k2_10", "ns"},
	{"extsort.read_ms", "ms"},
	{"extsort.runsort_ms", "ms"},
	{"extsort.spill_write_ms", "ms"},
	{"extsort.write_ms", "ms"},
	{"extsort.merge_ms", "ms"},
	{"extsort.merge_passes", "count"},
	{"extsort.runs", "count"},
	{"extsort.spilled_mb", "MB"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"ref.slices_sort_keys_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// report is what a workload hands back: the verification verdict, the
// operation counts, and one value per metric of the run's kind.
type report struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	details   map[string]any // extra context for the result file
	spans     *tracer
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"serve-light": func(c runConfig) (*report, error) { return runServe(c, serveSpecs["serve-light"]) },
	"serve-heavy": func(c runConfig) (*report, error) { return runServe(c, serveSpecs["serve-heavy"]) },
	"stream-4m":   runStream,
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: serve-light, serve-heavy or stream-4m")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured time, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the traced per-layer breakdown, 0 the end-to-end metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the result and span files")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig, trace int) error {
	runner, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", cfg.seconds)
	}
	host := hostBlock(cfg)
	hostLine, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hostLine)

	steal0, total0 := cpuSteal()
	rep, err := runner(cfg)
	if err != nil {
		return err
	}
	// Time the hypervisor gave this host's CPUs to other guests: it
	// slows every layer at once, so a result taken under heavy steal
	// says more about the host than about the program.
	if steal1, total1 := cpuSteal(); total1 > total0 {
		pct := 100 * float64(steal1-steal0) / float64(total1-total0)
		rep.details["cpu_steal_pct"] = pct
		fmt.Printf("host cpu steal during the run: %.1f%%\n", pct)
	}
	if !cfg.trace {
		if rep.values["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return err
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics, err := collect(defs, rep.values)
	if err != nil {
		return err
	}
	for _, d := range defs {
		fmt.Printf("%-40s %16.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	if err := writeResult(cfg, host, rep, metrics); err != nil {
		return err
	}
	if rep.spans != nil {
		path := filepath.Join(cfg.out, "spans-"+cfg.workload+".jsonl")
		if err := rep.spans.write(path); err != nil {
			return err
		}
		fmt.Printf("wrote %d spans to %s\n", len(rep.spans.spans), path)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.correct {
		return errors.New("an output did not match its input sorted by slices.Sort")
	}
	return nil
}

// collect checks that values holds exactly the metrics of defs and
// pairs each with its unit.
func collect(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics %v are not declared for this run kind", extra)
	}
	return out, nil
}

// hostBlock records where and on what a result was measured.
func hostBlock(cfg runConfig) map[string]any {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"cpu_model":    cpuModel(),
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"git_commit":   commit,
		"git_modified": modified,
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSteal reads the steal and total jiffies of all CPUs from
// /proc/stat; both are zero where it cannot be read.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, f := range fields[1:9] {
		var v uint64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// writeResult stores the full result — host block, seed, metrics and
// workload details — next to the span file.
func writeResult(cfg runConfig, host map[string]any, rep *report, metrics map[string]metric) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{
		"host":      host,
		"correct":   rep.correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
		"details":   rep.details,
		"written":   time.Now().UTC().Format(time.RFC3339),
	}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-trace%d.json", cfg.workload, map[bool]int{false: 0, true: 1}[cfg.trace])
	return os.WriteFile(filepath.Join(cfg.out, name), append(b, '\n'), 0o644)
}
