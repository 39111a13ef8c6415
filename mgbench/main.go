// Command mgbench is the repository's benchmark. It runs one workload per
// process against the program's public entry points and prints every metric
// by name with its unit; the last line of its output is one JSON object.
//
//	mgbench --workload serve|backlog|sim --seed N --seconds S --trace 0|1
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 the run measures an untraced phase and then a traced one,
// reports the per-layer metrics, and writes the traced phase's spans to
// .bench_build/traces/. The command exits non-zero when an output check
// fails. run.sh builds it from source and runs it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds int
	workDir string // scratch space for journals, inside the checkout
}

func (c runConfig) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

var workloads = map[string]func(runConfig, bool) (*phase, error){
	"serve":   runServe,
	"backlog": runBacklog,
	"sim":     runSim,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: serve, backlog or sim")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "how long a run measures")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: mgbench --workload serve|backlog|sim --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, workDir: filepath.Join(".bench_build", "work")}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "mgbench:", err)
		os.Exit(1)
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d cpu=%q nproc=%d go=%s\n",
		*name, *seed, *seconds, *trace, cpuModel(), runtime.NumCPU(), runtime.Version())

	out, err := measure(*name, run, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// measure runs the workload in the requested mode, prints the human-readable
// report, and returns the result line.
func measure(name string, run func(runConfig, bool) (*phase, error), cfg runConfig, traced bool) (resultOut, error) {
	base, err := timedRun(run, cfg, false)
	if err != nil {
		return resultOut{}, err
	}
	report := base
	specs := endToEnd
	if traced {
		tr, err := timedRun(run, cfg, true)
		if err != nil {
			return resultOut{}, err
		}
		for k := range untracedLayerMetrics {
			tr.values[k] = base.values[k]
			if n, ok := base.samples[k]; ok {
				tr.samples[k], tr.thin[k] = n, base.thin[k]
			}
		}
		tr.set("trace.overhead_frac", tr.primary/base.primary-1)
		tr.attempted += base.attempted
		tr.failed += base.failed
		tr.problems = append(base.problems, tr.problems...)
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
		if err := writeSpans(path, tr.spans); err != nil {
			return resultOut{}, err
		}
		fmt.Printf("# %d spans written to %s\n", len(tr.spans), path)
		printSelfTimes(tr.spans)
		report, specs = tr, perLayer
	}

	out := resultOut{
		Correct:   len(report.problems) == 0,
		Attempted: report.attempted,
		Failed:    report.failed,
		Metrics:   map[string]metricOut{},
	}
	w := bufio.NewWriter(os.Stdout)
	for _, m := range specs {
		v := report.values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.Correct = false
			report.problems = append(report.problems, fmt.Sprintf("%s is not a number", m.Name))
			v = 0
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
		note := ""
		if n, ok := report.samples[m.Name]; ok {
			note = fmt.Sprintf("  (n=%d)", n)
			if report.reps > 1 {
				note = fmt.Sprintf("  (n=%d over %d repetitions)", n, report.reps)
			}
			if report.thin[m.Name] {
				note += " fewer than 10 samples beyond this percentile"
			}
		}
		fmt.Fprintf(w, "%-32s %14.4f %-6s%s\n", m.Name, v, m.Unit, note)
	}
	for _, pr := range report.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", pr)
	}
	if err := w.Flush(); err != nil {
		return resultOut{}, err
	}
	return out, nil
}

// timedRun runs one phase and prints its wall time and the share of the
// host's CPU time stolen by other guests meanwhile, which explains most
// run-to-run noise on a shared machine.
func timedRun(run func(runConfig, bool) (*phase, error), cfg runConfig, traced bool) (*phase, error) {
	steal0, total0 := cpuSteal()
	start := time.Now()
	p, err := run(cfg, traced)
	steal1, total1 := cpuSteal()
	if total1 > total0 {
		fmt.Printf("# phase traced=%v took %.1fs, cpu steal %.1f%%\n", traced,
			time.Since(start).Seconds(), 100*float64(steal1-steal0)/float64(total1-total0))
	}
	return p, err
}

// cpuSteal returns the host-wide stolen and total CPU time in clock ticks,
// or zeros where /proc/stat is unavailable.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// printSelfTimes prints each span name's total and self time.
func printSelfTimes(spans []span) {
	self := selfTimes(spans)
	total := map[string]time.Duration{}
	count := map[string]int{}
	for _, s := range spans {
		total[s.Name] += s.dur()
		count[s.Name]++
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# span %-22s count %7d  total %10.1f ms  self %10.1f ms\n", n, count[n], ms(total[n]), ms(self[n]))
	}
}

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
