package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTailSelection(t *testing.T) {
	for _, c := range []struct{ n, rank int }{
		{1, 1}, {10, 10}, {11, 11}, {21, 21}, {22, 12}, {100, 90}, {999, 989}, {1000, 990}, {2000, 1980},
	} {
		if got := tailRank(c.n); got != c.rank {
			t.Errorf("tailRank(%d) = %d, want %d", c.n, got, c.rank)
		}
		if c.rank < c.n && c.n-c.rank < 10 {
			t.Errorf("tailRank(%d) leaves %d samples beyond it", c.n, c.n-c.rank)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted
	}
	d := summarize(xs)
	if d.N != 1000 || d.P50 != 500.5 || d.Tail != 990 || d.TailPct != 99 {
		t.Errorf("summarize(1..1000) = %+v, want n=1000 p50=500.5 p99=990", d)
	}
	if d := summarize([]float64{3, 1, 2}); d.P50 != 2 || d.Tail != 3 || d.TailPct != 100 {
		t.Errorf("summarize(3 samples) = %+v, want p50=2 and the maximum as tail", d)
	}
}

func TestPlanFollowsTheMixInEveryPeriod(t *testing.T) {
	total := 0
	for _, m := range serveMix {
		if m.weight%mixUnit != 0 {
			t.Fatalf("class %s weight %d is not a multiple of %d", m.class, m.weight, mixUnit)
		}
		total += m.weight
	}
	if total != 100 {
		t.Fatalf("mix weights sum to %d", total)
	}
	period := 100 / mixUnit
	plan := planRequests(10*period, 7, []int{1, 2, 3})
	for p := 0; p < 10; p++ {
		count := map[string]int{}
		for _, r := range plan[p*period : (p+1)*period] {
			count[r.class]++
		}
		for _, m := range serveMix {
			if count[m.class] != m.weight/mixUnit {
				t.Errorf("period %d: %d %s requests, want %d", p, count[m.class], m.class, m.weight/mixUnit)
			}
		}
	}
	if !reflect.DeepEqual(plan, planRequests(len(plan), 7, []int{1, 2, 3})) {
		t.Error("the same seed planned different requests")
	}
}

// TestOpenLoopChargesBacklog serves one request at a time, each taking
// 10ms, and offers one every 5ms: a generator that timed from the send
// instead of the due instant would report about 10ms for every request.
func TestOpenLoopChargesBacklog(t *testing.T) {
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		time.Sleep(10 * time.Millisecond)
		mu.Unlock()
	}))
	defer ts.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	plan := make([]request, 20)
	for i := range plan {
		plan[i] = request{class: "bfs", tenant: "t", path: "/"}
	}
	out := openLoop(client, ts.URL, plan, 200)
	last := out[len(out)-1]
	if last.err != nil || last.status != http.StatusOK {
		t.Fatalf("last request: status %d, err %v", last.status, last.err)
	}
	// 20 requests need 200ms of service; the last is due at 95ms.
	if last.latMs < 80 {
		t.Errorf("last request latency %.1fms from its due time, want the backlog (>80ms) counted", last.latMs)
	}
	late := make([]float64, len(out))
	for i, s := range out {
		late[i] = s.lateMs
	}
	if m := median(late); m > 5 {
		t.Errorf("generator median lateness %.2fms: the dispatcher must not wait for responses", m)
	}
}

func TestServePhasesFitTheRun(t *testing.T) {
	run := float64(readManifest(t).RunSeconds)
	ph := servePhases(run)
	if got := (ph.solo + ph.closed + ph.lo + ph.hi).Seconds(); got < run-0.01 || got > run+0.01 {
		t.Errorf("phases of a %gs run sum to %.2fs", run, got)
	}
	if (ph.solo + ph.closed).Seconds() < minLoopsS {
		t.Errorf("closed loops of a %gs run last %v", run, ph.solo+ph.closed)
	}
	if n := loRate * ph.lo.Seconds(); n < tailSamples-1 {
		t.Errorf("lo phase offers %.0f requests, want %d", n, tailSamples)
	}
	if n := hiRate * ph.hi.Seconds(); n < tailSamples-1 {
		t.Errorf("hi phase offers %.0f requests, want %d", n, tailSamples)
	}
	ph = servePhases(1)
	if got := (ph.solo + ph.closed + ph.lo + ph.hi).Seconds(); got > 1.01 {
		t.Errorf("phases of a 1s run sum to %.2fs", got)
	}
}

// TestChecksRejectCorruptedResults runs every class on a small graph,
// checks that the reference accepts the true results, then corrupts each
// result and checks that the reference rejects it.
func TestChecksRejectCorruptedResults(t *testing.T) {
	if err := initLibrary(); err != nil {
		t.Fatal(err)
	}
	defer finalizeLibrary()
	in := makeInputs(8, 3)
	p, err := buildPair(in.g, in.w, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.free()
	src := in.srcs[0]
	for _, c := range serveClasses {
		q := query{class: c, src: src}
		a, err := p.run(q, libraryPR)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify(in.ref, q, libraryPR, a); err != nil {
			t.Fatalf("%s: true result rejected: %v", c, err)
		}
		switch {
		case a.levels != nil:
			idx, vals, _ := a.levels.ExtractTuples()
			err = a.levels.SetElement(vals[len(vals)-1]+1, idx[len(idx)-1])
		case a.floats != nil:
			idx, vals, _ := a.floats.ExtractTuples()
			err = a.floats.SetElement(vals[0]*1.01, idx[0])
		case a.sub != nil:
			a.verts = a.verts[1:]
		default:
			a.count++
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := verify(in.ref, q, libraryPR, a); err == nil {
			t.Errorf("%s: corrupted result accepted", c)
		}
		a.free()
	}

	body := func(class string, v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	lv := in.ref.bfs(src)
	var idx, levels []int
	for v, l := range lv {
		if l >= 0 {
			idx, levels = append(idx, v), append(levels, l)
		}
	}
	r := &request{class: "bfs", src: src}
	good := body("bfs", map[string]any{"indices": idx, "levels": levels})
	if err := verifyBody(in.ref, r, good); err != nil {
		t.Fatalf("true bfs response rejected: %v", err)
	}
	levels[len(levels)-1]++
	if err := verifyBody(in.ref, r, body("bfs", map[string]any{"indices": idx, "levels": levels})); err == nil {
		t.Error("corrupted bfs response accepted")
	}
	tri := &request{class: "triangles"}
	if err := verifyBody(in.ref, tri, body("triangles", map[string]any{"triangles": in.ref.triangles() + 1})); err == nil {
		t.Error("corrupted triangle count accepted")
	}
}

// manifest is the part of BENCHMARK.json the program must agree with.
type manifest struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Paths      []string `json:"paths"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(strings.NewReader(string(b)))
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the program's table:\n%s", manifestJSON(endToEnd, true))
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's table:\n%s", manifestJSON(perLayer, false))
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Name == "serve" && (!strings.Contains(w.Why, fmt.Sprintf("%g/s", loRate)) || !strings.Contains(w.Why, fmt.Sprintf("%g/s", hiRate))) {
			t.Errorf("serve workload's why must state the rates %g/s and %g/s: %q", loRate, hiRate, w.Why)
		}
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
}

// manifestJSON renders a table the way BENCHMARK.json lists it.
func manifestJSON(defs []metricDef, bound bool) string {
	var b strings.Builder
	for _, d := range defs {
		if bound {
			fmt.Fprintf(&b, "    {\"name\": %q, \"unit\": %q, \"better\": %q, \"bound\": %g},\n", d.Name, d.Unit, d.Better, d.Bound)
		} else {
			fmt.Fprintf(&b, "    {\"name\": %q, \"unit\": %q, \"better\": %q},\n", d.Name, d.Unit, d.Better)
		}
	}
	return b.String()
}

// TestRunsEmitExactlyTheDeclaredMetrics runs every workload, untraced and
// traced, on small graphs and checks the printed line: correct, and one
// value with the declared unit for every declared metric and no other.
func TestRunsEmitExactlyTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := defaultConfig()
			cfg.workload, cfg.seed, cfg.seconds, cfg.trace = w, 5, 1, trace
			cfg.scale, cfg.serveScale, cfg.setupReps, cfg.traceDir = 9, 8, 2, t.TempDir()
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			line, err := resultLine(rep)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			var out struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]metricOut
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w, trace, out.Correct, out.Attempted, out.Failed, strings.Join(rep.lines, "\n"))
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				if got, ok := out.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present=%v), declared unit %s", w, trace, d.Name, got, ok, d.Unit)
				}
			}
		}
	}
}
