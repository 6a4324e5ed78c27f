// Command perfbench is the repository benchmark. It runs one workload —
// library, update or serve — for a fixed time, checks every result it
// samples against an independent plain-Go reference, and prints one JSON
// line with the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). See README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	grb "github.com/grblas/grb"
)

// config is one run's parameters. The command line sets the workload, seed,
// duration and trace switch; the sizes are fixed here so every commit
// measures the same inputs, and the self-tests shrink them.
type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	scale      int // RMAT scale of the library and update graph
	serveScale int // RMAT scale of the served graph
	setupReps  int // set-ups per run; setup_s is their median
	threads    int // caller threads and client connections: nproc
	traceDir   string
}

const edgeFactor = 8

func defaultConfig() config {
	return config{scale: 16, serveScale: 12, setupReps: 3, threads: runtime.NumCPU(), traceDir: ".bench_build"}
}

// tally counts operations. failed covers errors, sheds and wrong results;
// wrong and errs alone make the run incorrect.
type tally struct {
	attempted, failed, wrong, errs, shed int64
	notes                                []string
}

func (t *tally) fail(kind *int64, format string, args ...any) {
	t.failed++
	*kind++
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// okRatio is 1 - fail_ratio: the share of attempted operations that
// completed with a correct result.
func (t *tally) okRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return 1 - float64(t.failed)/float64(t.attempted)
}

// report is what a workload hands back to main.
type report struct {
	tally
	metrics *metricSet
	lines   []string // human-readable detail printed before the JSON line
}

func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// setDist reports a distribution's median and tail under two names and
// logs the sample count and the tail's percentile.
func (r *report) setDist(p50Name, tailName string, d dist) {
	r.metrics.set(p50Name, d.P50)
	if tailName != "" {
		r.metrics.set(tailName, d.Tail)
		r.logf("%-14s n=%d p50=%.3f p%.1f=%.3f", p50Name, d.N, d.P50, d.TailPct, d.Tail)
		return
	}
	r.logf("%-14s n=%d p50=%.3f", p50Name, d.N, d.P50)
}

var workloads = map[string]func(config, *report) error{
	"library": runLibrary,
	"update":  runUpdate,
	"serve":   runServe,
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "library, update or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement time")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	line, err := resultLine(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if rep.wrong > 0 || rep.errs > 0 {
		os.Exit(1)
	}
}

// run executes one workload and returns its report; an error means the
// benchmark itself could not run.
func run(cfg config) (*report, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want library, update or serve)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := initLibrary(); err != nil {
		return nil, err
	}
	defer finalizeLibrary()
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep := &report{metrics: newMetricSet(defs)}
	rep.logf("perfbench workload=%s seed=%d seconds=%g trace=%v threads=%d rmat(scale=%d serve_scale=%d edge_factor=%d a=0.57 b=0.19 c=0.19) weights=uniform[1,2) seed 7 setup_reps=%d",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.threads, cfg.scale, cfg.serveScale, edgeFactor, cfg.setupReps)
	if err := wl(cfg, rep); err != nil {
		return nil, err
	}
	if !cfg.trace {
		rep.metrics.set("mem_peak_mb", peakRSSMB())
		rep.metrics.set("ok_ratio", rep.okRatio())
	}
	if m := rep.metrics.missing(); len(m) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(m, ", "))
	}
	for _, n := range rep.notes {
		rep.logf("FAILED: %s", n)
	}
	rep.logf("attempted=%d failed=%d (wrong=%d errors=%d shed=%d)", rep.attempted, rep.failed, rep.wrong, rep.errs, rep.shed)
	return rep, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLine(rep *report) (string, error) {
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{
		Correct:   rep.wrong == 0 && rep.errs == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	if out.Attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	names := make([]string, 0, len(rep.metrics.values))
	for n := range rep.metrics.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rep.metrics.values[n]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", n, v)
		}
		out.Metrics[n] = metricOut{Value: v, Unit: rep.metrics.defs[n].Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// initLibrary starts the library for one run. The inputs come only from
// the seed; a fault plan or trace session inherited from the environment
// would change what is measured.
func initLibrary() error {
	os.Unsetenv("GRB_FAULTS")
	os.Unsetenv("GRB_TRACE")
	return grb.Init(grb.NonBlocking)
}

func finalizeLibrary() {
	_ = grb.Finalize() // the run's objects are garbage once it reports
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, falling
// back to the Go runtime's view of memory obtained from the OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(l, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// deadline is the end of a measurement window of the given seconds.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
