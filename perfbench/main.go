// Command perfbench is the repository benchmark: it runs one named
// workload against in-process pmaxtd servers, checks every answer bit for
// bit against the library, and prints its metrics, the last line being
// one JSON object.
//
//	go run . --workload table1-exact --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics instead, the self time of every traced layer and the tracing
// overhead.  Run it from the repository root: it keeps its scratch files
// under .bench_build/.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"sprint/internal/stat"
)

const scratchRoot = ".bench_build"

// baselinePath holds the figures measured when the benchmark was added.
const baselinePath = "perfbench/baseline.json"

// stealWarn is the stolen CPU share above which a run's timings are
// flagged: on a shared virtual machine such episodes slow every workload,
// and small jobs by more than the stolen share.
const stealWarn = 0.05

// runLimit bounds a whole run; a job still unanswered then means a hang.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envRecord is stored beside every result: figures taken under another
// ISA or CPU count are not comparable.
type envRecord struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	ISA        string `json:"isa"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "length of the measurement window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newW, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// The run must end within the caller's limit even if a server hangs.
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v\n", runLimit)
		os.Exit(1)
	})
	defer watchdog.Stop()
	env := envRecord{Workload: *name, Seed: *seed, Trace: *trace, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), ISA: stat.ActiveKernelISA().String(), Go: runtime.Version(), Commit: commit()}
	res, lines, err := runWorkload(newW(), env, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envJSON)
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	for _, warn := range recordResult(env, res) {
		fmt.Fprintln(stdout, warn)
	}
	last, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: some answers were refused, failed or wrong")
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

// runWorkload runs one workload: setupReps set-ups, the measurement
// window, then (outside every timed part) the traced run's layer probes
// and the reference checks.
func runWorkload(w workload, env envRecord, window time.Duration) (result, []string, error) {
	dir := filepath.Join(scratchRoot, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{seed: env.Seed, window: window, nproc: env.NProc, dir: dir, refs: newReferences(env.NProc)}
	if env.Trace == 1 {
		r.tr = newTracer()
	}
	defer w.close()
	var setups []float64
	setup := func(rep int) error {
		w.close()
		// Collect the previous fixture's garbage outside the timed part.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(r, filepath.Join(dir, strconv.Itoa(rep))); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	if err := setup(0); err != nil {
		return result{}, nil, err
	}
	runtime.GC()
	cpu0 := readCPUStat()
	wall, err := w.measure(r)
	if err != nil {
		return result{}, nil, err
	}
	// Peak RSS grows with the jobs the servers keep, so it is read at a
	// fixed job count, not after however many jobs the window held.
	rssNote := fmt.Sprintf("peak_rss_mb read when %d window jobs had completed", r.rssAt)
	if r.rssMB == 0 {
		r.rssMB = peakRSSMB()
		rssNote = fmt.Sprintf("peak_rss_mb read after the window: it completed fewer than %d jobs", r.rssAt)
	}
	steal := cpu0.stealFrac(readCPUStat())

	m := map[string]float64{}
	var lines []string
	if r.tr != nil {
		if err := w.layers(r, m); err != nil {
			return result{}, nil, err
		}
		if err := r.probeEngine(w.paper(), m); err != nil {
			return result{}, nil, err
		}
	}
	// The first set-up is the measured fixture.  The others only time
	// set-up; they come after the window, so nothing of theirs (a
	// coordinator's lease loop outlives it by up to a lease period) is
	// alive during it.
	for rep := 1; rep < setupReps; rep++ {
		if err := setup(rep); err != nil {
			return result{}, nil, err
		}
	}
	w.close()
	t, err := r.verify()
	if err != nil {
		return result{}, nil, err
	}
	js := r.measured()
	if len(js) == 0 {
		return result{}, nil, errors.New("no job completed in the window")
	}
	if r.tr != nil {
		res, err := r.refs.get(w.paper(), seqOptions(jobSeed(r.seed, 0)))
		if err != nil {
			return result{}, nil, err
		}
		seqLayers(res, m)
		lines = append(lines, traceReport(r, js, env)...)
	} else {
		m = endToEnd(js, wall, setups, r.rssMB)
		lines = append(lines, rssNote)
		extra, err := w.extra(r)
		if err != nil {
			return result{}, nil, err
		}
		lines = append(lines, extra...)
		for _, d := range closedLoopMetrics {
			lines = append(lines, fmt.Sprintf("%s %g %s (not gated)", d.Name, m[d.Name], d.Unit))
		}
	}
	lines = append(lines, fmt.Sprintf("steal_frac %.4f (CPU time the hypervisor took from this machine during the window)", steal))
	if steal > stealWarn {
		lines = append(lines, fmt.Sprintf("WARNING: %.0f%% of the machine's CPU time was stolen during the window; timings are not comparable", 100*steal))
	}
	lines = append(lines, fmt.Sprintf("failed_frac %g (%d refused, %d failed, %d wrong of %d attempted)",
		t.frac(), t.Refused, t.Failed, t.Wrong, t.Attempted))

	defs := endToEndMetrics
	if r.tr != nil {
		defs = layerMetrics
	}
	res := result{Correct: t.failures() == 0, Attempted: t.Attempted, Failed: t.failures(), Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		lines = append(lines, fmt.Sprintf("metric %s %g %s", d.Name, v, d.Unit))
	}
	return res, lines, nil
}

// traceReport writes the spans out and summarises them: self time per
// span name, and the tracing overhead as the difference between the
// median latency of traced and untraced jobs of the same run.
func traceReport(r *runner, js []*jobRec, env envRecord) []string {
	var lines []string
	path := filepath.Join(scratchRoot, "traces", fmt.Sprintf("%s-seed%d.json", env.Workload, env.Seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		if err := r.tr.write(path); err == nil {
			lines = append(lines, "spans written to "+path)
		}
	}
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	count := map[string]int{}
	for _, s := range spans {
		count[s.Name]++
	}
	var names []string
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("self_time %s %.3f ms over %d spans", n, inMS(self[n]), count[n]))
	}
	traced, untraced := median(latencies(js, false, true)), median(latencies(js, false, false))
	if math.IsNaN(traced - untraced) {
		return append(lines, "trace_overhead unavailable: the window needs a traced and an untraced job")
	}
	return append(lines, fmt.Sprintf("trace_overhead job_p50_s traced %.6f untraced %.6f difference %.6f s",
		traced, untraced, traced-untraced))
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// cpuStat is the machine-wide CPU time split from /proc/stat, in ticks.
type cpuStat struct{ total, steal float64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var c cpuStat
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		if i <= 8 { // user … steal; guest time is already inside user
			c.total += v
		}
		if i == 8 {
			c.steal = v
		}
	}
	return c
}

// stealFrac is the share of CPU time stolen between c and later.
func (c cpuStat) stealFrac(later cpuStat) float64 {
	return ratio(later.steal-c.steal, later.total-c.total)
}

// commit names the source revision the binary was built from, when the
// build could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// recordResult appends the run to .bench_build/results.jsonl and returns
// warnings for figures it must not be compared with: earlier runs of the
// same workload there, or the committed baseline, taken under another
// kernel ISA or CPU count.
func recordResult(env envRecord, res result) []string {
	path := filepath.Join(scratchRoot, "results.jsonl")
	type rec struct {
		Env    envRecord `json:"env"`
		Result result    `json:"result"`
	}
	var warns []string
	warn := func(other envRecord, with string) {
		if other.ISA != env.ISA || other.NProc != env.NProc {
			warns = append(warns, fmt.Sprintf("WARNING: not comparable with %s (isa %s, nproc %d; this run isa %s, nproc %d)",
				with, other.ISA, other.NProc, env.ISA, env.NProc))
		}
	}
	var base rec
	if b, err := os.ReadFile(baselinePath); err == nil && json.Unmarshal(b, &base) == nil {
		warn(base.Env, baselinePath)
	}
	if b, err := os.ReadFile(path); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			var old rec
			if json.Unmarshal([]byte(l), &old) == nil && old.Env.Workload == env.Workload {
				warn(old.Env, "an earlier run in "+path)
				break
			}
		}
	}
	line, err := json.Marshal(rec{env, res})
	if err != nil {
		return warns
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return warns
	}
	defer f.Close()
	fmt.Fprintf(f, "%s\n", line)
	return warns
}
