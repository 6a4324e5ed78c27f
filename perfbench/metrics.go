package main

import "fmt"

// metricDef declares one reported metric. The two tables below are the
// benchmark's contract: BENCHMARK.json lists exactly these names, units and
// directions (TestManifestMatchesBenchmarkJSON), and a run emits every
// metric of its table and nothing else.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: tolerated relative worsening
}

// The serve classes, in the order the query mix lists them.
var serveClasses = []string{"bfs", "sssp", "ego1", "ego2", "pagerank", "triangles"}

// The library round's algorithms, the ones with a single-thread twin.
var roundAlgos = []string{"bfs", "sssp", "pagerank", "triangles"}

// grbOps are the operations whose per-op registry totals are reported.
var grbOps = []string{
	"VxM", "MxM", "VectorAssignScalar", "VectorApply", "VectorApplyBindSecond",
	"EWiseAddVector", "EWiseMultVector", "MatrixReduceToVector", "MatrixSelect", "Matrix.Build",
}

// ewiseOps are the element-wise passes whose share of op time is
// grb.ewise_share.
var ewiseOps = map[string]bool{
	"VectorAssignScalar": true, "VectorApply": true, "VectorApplyBindSecond": true,
	"EWiseAddVector": true, "EWiseMultVector": true,
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mem_peak_mb", "MB", "lower", 0.25},
	{"ok_ratio", "ratio", "higher", 0.05},
	{"bfs_ms", "ms", "lower", 0.25},
	{"sssp_ms", "ms", "lower", 0.25},
	{"pagerank_ms", "ms", "lower", 0.25},
	{"triangles_ms", "ms", "lower", 0.25},
	{"ego.p50_ms", "ms", "lower", 0.25},
	{"edges_per_s", "1/s", "higher", 0.25},
	{"capacity_qps", "1/s", "higher", 0.25},
	{"lo.p50_ms", "ms", "lower", 0.25},
	{"lo.tail_ms", "ms", "lower", 0.25},
	{"hi.p50_ms", "ms", "lower", 0.25},
	{"hi.tail_ms", "ms", "lower", 0.25},
}

var sparseCounters = []string{
	"push", "pull", "dense_ranges", "hash_ranges", "mono", "closure",
	"blocked_ops", "blocked_tiles", "span_flops", "work_flops", "transposes",
	"format_conversions", "scratch_bytes", "budget_degrades",
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, c := range sparseCounters {
		unit := "count"
		switch c {
		case "span_flops", "work_flops":
			unit = "flops"
		case "scratch_bytes":
			unit = "B"
		}
		better := "lower"
		if c == "mono" {
			better = "higher"
		}
		add("sparse."+c, unit, better)
	}
	for _, op := range grbOps {
		add("grb."+op+".calls", "count", "lower")
		add("grb."+op+".ms", "ms", "lower")
		add("grb."+op+".flops", "flops", "lower")
	}
	add("grb.ewise_share", "ratio", "lower")
	add("grb.api_share", "ratio", "lower")
	add("grb.setelement_us", "us", "lower")
	add("grb.wait_ms", "ms", "lower")
	for _, c := range serveClasses {
		add("lagraph."+c+"_ms", "ms", "lower")
	}
	add("lagraph.pagerank_iters", "count", "lower")
	add("lagraph.bfs_levels", "count", "lower")
	add("lagraph.bfs_reached", "count", "higher")
	for _, c := range serveClasses {
		add("lagraph."+c+".alloc_mb", "MB", "lower")
	}
	for _, c := range serveClasses {
		add("serve.handler_ms."+c, "ms", "lower")
	}
	for _, c := range serveClasses {
		add("serve.overhead_ms."+c, "ms", "lower")
	}
	for _, c := range serveClasses {
		add("serve.resp_bytes."+c, "B", "lower")
	}
	add("serve.transport_ms", "ms", "lower")
	add("serve.status_4xx", "count", "lower")
	add("serve.status_5xx", "count", "lower")
	add("serve.shed", "count", "lower")
	for _, t := range tenants {
		add("serve.limiter_window."+t, "count", "higher")
	}
	add("serve.govern_sheds", "count", "lower")
	add("serve.queue_dropped", "count", "lower")
	add("loadgen.late_ms", "ms", "lower")
	for _, a := range roundAlgos {
		add("lagraph."+a+"_ms.t1", "ms", "lower")
	}
	for _, a := range roundAlgos {
		add("speedup."+a, "ratio", "higher")
	}
	add("obsv.overhead_pct", "%", "lower")
	return out
}

// metricSet collects one run's reported values and refuses names the
// active table does not declare, so a typo fails the run instead of
// silently printing an undeclared metric.
type metricSet struct {
	defs   map[string]metricDef
	order  []string
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: map[string]metricDef{}, values: map[string]float64{}}
	for _, d := range defs {
		m.defs[d.Name] = d
		m.order = append(m.order, d.Name)
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.defs[name]; !ok {
		panic(fmt.Sprintf("perfbench: metric %q is not declared", name))
	}
	m.values[name] = v
}

// missing lists declared metrics the run never set.
func (m *metricSet) missing() []string {
	var out []string
	for _, n := range m.order {
		if _, ok := m.values[n]; !ok {
			out = append(out, n)
		}
	}
	return out
}
