package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	grb "github.com/grblas/grb"
)

// counters is a snapshot of the kernel counters grb exports, in
// sparseCounters order. The benchmark only ever takes differences of two
// snapshots, so nothing here resets process-wide state.
type counters [14]int64

func readCounters() counters {
	var c counters
	c[0], c[1] = grb.DirectionCounts()
	c[2], c[3] = grb.KernelCounts()
	c[4], c[5] = grb.MonoKernelCounts()
	c[6], c[7] = grb.BlockKernelCounts()
	c[8], c[9] = grb.SpanFlops()
	c[10] = grb.TransposeCount()
	c[11] = grb.FormatConversionCount()
	c[12] = grb.KernelScratchBytes()
	c[13], _ = grb.HardeningCounts()
	return c
}

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// layerTrace is a traced run's state: the spans recorded around the
// benchmark's own calls into each layer, the summed counter deltas of the
// traced units, and the timings that feed the derived ratios.
type layerTrace struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts counters
	units  int     // traced units (rounds, steps or queries)
	callMs float64 // wall time of the traced calls into the library
	build  grb.OpMetrics
}

type span struct {
	Name   string
	Start  time.Duration
	Dur    time.Duration
	Parent int // index into spans, -1 for a root
}

// maxSpans bounds the in-memory trace; later spans are counted, not kept.
const maxSpans = 200000

func newLayerTrace() *layerTrace { return &layerTrace{t0: time.Now()} }

// record adds a finished span and returns its index (-1 once the trace is
// full).
func (lt *layerTrace) record(name string, start time.Time, dur time.Duration, parent int) int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if len(lt.spans) >= maxSpans {
		return -1
	}
	lt.spans = append(lt.spans, span{name, start.Sub(lt.t0), dur, parent})
	return len(lt.spans) - 1
}

// traced runs f with the metrics registry on, accumulating the counter
// deltas, under one root span. Callers count the units (rounds, steps,
// queries) f covers in lt.units.
func (lt *layerTrace) traced(name string, f func(root int) error) error {
	grb.EnableMetrics(true)
	defer grb.EnableMetrics(false)
	before := readCounters()
	start := time.Now()
	root := lt.record(name, start, 0, -1)
	err := f(root)
	dur := time.Since(start)
	lt.mu.Lock()
	if root >= 0 {
		lt.spans[root].Dur = dur
	}
	lt.counts.add(readCounters().minus(before))
	lt.mu.Unlock()
	return err
}

// note records one timed call into the library inside a traced unit.
func (lt *layerTrace) note(name string, parent int, start time.Time, d time.Duration) {
	lt.record(name, start, d, parent)
	lt.mu.Lock()
	lt.callMs += ms(d)
	lt.mu.Unlock()
}

// captureBuild snapshots the registry's Matrix.Build totals of a traced
// set-up, turns the registry off and clears it for the measured units.
func (lt *layerTrace) captureBuild() {
	grb.EnableMetrics(false)
	lt.build = grb.Metrics()["Matrix.Build"]
	grb.ResetMetrics()
}

// writeTrace stores the spans as Chrome-trace JSON under dir.
func (lt *layerTrace) writeTrace(dir, workload string, seed int64) (string, error) {
	type ev struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args any     `json:"args,omitempty"`
	}
	evs := make([]ev, 0, len(lt.spans))
	for i, s := range lt.spans {
		root := i
		for p := lt.spans[root].Parent; p >= 0 && p < root; p = lt.spans[root].Parent {
			root = p
		}
		evs = append(evs, ev{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			Pid: 1, Tid: root, Args: map[string]int{"parent": s.Parent}})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("perfbench-trace-%s-%d.json", workload, seed))
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// setKernelLayers reports the internal/sparse counters and the grb
// registry per traced unit, plus the derived shares.
func setKernelLayers(rep *report, lt *layerTrace) {
	units := float64(lt.units)
	if units == 0 {
		units = 1
	}
	for i, name := range sparseCounters {
		rep.metrics.set("sparse."+name, float64(lt.counts[i])/units)
	}
	ops := grb.Metrics()
	var opNs, ewNs int64
	for name, m := range ops {
		if strings.HasPrefix(name, "sequence(") {
			continue // a sequence span contains its ops' own time
		}
		opNs += m.TotalNs
		if ewiseOps[name] {
			ewNs += m.TotalNs
		}
	}
	for _, op := range grbOps {
		m, per := ops[op], units
		if op == "Matrix.Build" {
			m, per = lt.build, 1 // per set-up: the bulk ingest happens there
		}
		rep.metrics.set("grb."+op+".calls", float64(m.Count)/per)
		rep.metrics.set("grb."+op+".ms", float64(m.TotalNs)/1e6/per)
		rep.metrics.set("grb."+op+".flops", float64(m.Flops)/per)
	}
	ew, api := 0.0, 0.0
	if opNs > 0 {
		ew = float64(ewNs) / float64(opNs)
	}
	if lt.callMs > 0 {
		api = 1 - float64(opNs)/1e6/lt.callMs
	}
	rep.metrics.set("grb.ewise_share", ew)
	rep.metrics.set("grb.api_share", api)
	rep.logf("traced units=%d op_ms=%.1f call_ms=%.1f ewise_share=%.3f api_share=%.3f",
		lt.units, float64(opNs)/1e6, lt.callMs, ew, api)
}

// overheadPct compares traced and untraced unit times.
func overheadPct(traced, untraced []float64) float64 {
	u := median(untraced)
	if u == 0 || len(traced) == 0 {
		return 0
	}
	return (median(traced)/u - 1) * 100
}

// speedupProbe times the round's algorithms once each on the same
// snapshots at one thread and at cfg.threads, and reports the
// single-thread times and their ratios: the internal/parallel layer's
// evidence.
func speedupProbe(cfg config, rep *report, p *graphPair, src int) error {
	t1, err := p.view(grb.WithThreads(1))
	if err != nil {
		return err
	}
	defer t1.free()
	tn, err := p.view(grb.WithThreads(cfg.threads))
	if err != nil {
		return err
	}
	defer tn.free()
	for _, algo := range roundAlgos {
		var times [2]float64
		for k, v := range []*graphPair{t1, tn} {
			start := time.Now()
			a, err := v.run(query{class: algo, src: src}, libraryPR)
			if err != nil {
				return err
			}
			times[k] = ms(time.Since(start))
			a.free()
		}
		rep.metrics.set("lagraph."+algo+"_ms.t1", times[0])
		rep.metrics.set("speedup."+algo, times[0]/times[1])
		rep.logf("speedup %-10s t1=%.2fms t%d=%.2fms x%.2f", algo, times[0], cfg.threads, times[1], times[0]/times[1])
	}
	return nil
}

// allocMB returns the bytes f allocated, in MiB.
func allocMB(f func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), err
}
