package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	grb "github.com/grblas/grb"
)

// updateBatch is the number of undirected edges one step inserts, and the
// number it deletes.
const updateBatch = 512

// verifyEvery is how often (in steps) the mirror's BFS checks the
// library's; every step checks nnz and sampled elements.
const verifyEvery = 4

// updateReads are the reads that follow the step's BFS, one per step in
// rotation, so every algorithm is also timed right after a write to its
// matrix. The ego slot runs ego networks at the serve mix's 5:1 ratio.
var updateReads = [][]string{
	{"sssp"}, {"pagerank"}, {"triangles"},
	{"ego1", "ego1", "ego1", "ego1", "ego1", "ego2"},
}

type wedge struct {
	u, v int
	w    float64
}

// mirror is the Go-side edge set the update workload checks the matrices
// against: the generated graph, which is never deleted from, plus the
// live inserted edges, oldest first.
type mirror struct {
	base    *adjList
	baseNNZ int
	live    []wedge
	liveSet map[[2]int]float64 // both directions
}

func (m *mirror) has(u, v int) bool {
	if _, ok := m.liveSet[[2]int{u, v}]; ok {
		return true
	}
	row := m.base.dst[m.base.off[u]:m.base.off[u+1]]
	k := sort.SearchInts(row, v)
	return k < len(row) && row[k] == v
}

// draw picks n distinct undirected edges absent from the graph.
func (m *mirror) draw(rng *rand.Rand, n int) []wedge {
	out := make([]wedge, 0, n)
	taken := map[[2]int]bool{}
	for len(out) < n {
		u, v := rng.Intn(m.base.n), rng.Intn(m.base.n)
		if u == v || m.has(u, v) || taken[[2]int{u, v}] {
			continue
		}
		taken[[2]int{u, v}], taken[[2]int{v, u}] = true, true
		out = append(out, wedge{u, v, 1 + rng.Float64()})
	}
	return out
}

// apply replaces the live set: dels leave it, ins join it.
func (m *mirror) apply(ins, dels []wedge) {
	for _, e := range dels {
		delete(m.liveSet, [2]int{e.u, e.v})
		delete(m.liveSet, [2]int{e.v, e.u})
	}
	for _, e := range ins {
		m.liveSet[[2]int{e.u, e.v}] = e.w
		m.liveSet[[2]int{e.v, e.u}] = e.w
	}
	m.live = append(m.live[len(dels):], ins...)
}

func (m *mirror) extraAdj() map[int][]int {
	adj := map[int][]int{}
	for k := range m.liveSet {
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	return adj
}

// write applies one batch through SetElement/RemoveElement and completes
// both matrices; it returns the element-call and total times.
func write(p *graphPair, ins, dels []wedge) (set, total time.Duration, err error) {
	start := time.Now()
	for _, e := range ins {
		for _, d := range [2][2]int{{e.u, e.v}, {e.v, e.u}} {
			if err = p.pattern.SetElement(true, d[0], d[1]); err != nil {
				return
			}
			if err = p.weights.SetElement(e.w, d[0], d[1]); err != nil {
				return
			}
		}
	}
	for _, e := range dels {
		for _, d := range [2][2]int{{e.u, e.v}, {e.v, e.u}} {
			if err = p.pattern.RemoveElement(d[0], d[1]); err != nil {
				return
			}
			if err = p.weights.RemoveElement(d[0], d[1]); err != nil {
				return
			}
		}
	}
	set = time.Since(start)
	if err = p.pattern.Wait(grb.Materialize); err != nil {
		return
	}
	err = p.weights.Wait(grb.Materialize)
	return set, time.Since(start), err
}

// check compares the matrices with the mirror after a write: stored
// counts, and sampled elements that must be present (with their weight)
// or absent.
func (m *mirror) check(p *graphPair, rng *rand.Rand, dels []wedge) error {
	want := m.baseNNZ + len(m.liveSet)
	for _, nv := range []func() (int, error){p.pattern.Nvals, p.weights.Nvals} {
		got, err := nv()
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("nnz %d, mirror %d", got, want)
		}
	}
	probe := func(u, v int) error {
		w, ok, err := p.weights.ExtractElement(u, v)
		if err != nil {
			return err
		}
		_, pok, err := p.pattern.ExtractElement(u, v)
		if err != nil {
			return err
		}
		lw, live := m.liveSet[[2]int{u, v}]
		if has := m.has(u, v); ok != has || pok != has || (live && w != lw) {
			return fmt.Errorf("element (%d,%d): stored=%v/%v weight=%g, mirror has=%v weight=%g", u, v, pok, ok, w, has, lw)
		}
		return nil
	}
	for k := 0; k < 4 && len(m.live) > 0; k++ {
		e := m.live[rng.Intn(len(m.live))]
		if err := probe(e.v, e.u); err != nil {
			return err
		}
	}
	for k := 0; k < 2 && len(dels) > 0; k++ {
		e := dels[rng.Intn(len(dels))]
		if err := probe(e.u, e.v); err != nil {
			return err
		}
	}
	for k := 0; k < 2; k++ {
		u := rng.Intn(m.base.n)
		if m.base.off[u] < m.base.off[u+1] {
			if err := probe(u, m.base.dst[m.base.off[u]]); err != nil {
				return err
			}
		}
	}
	return nil
}

// stepTimes is one update step's timings in ms.
type stepTimes struct {
	set, write, bfs float64
	reads           map[string][]float64
}

func runUpdate(cfg config, rep *report) error {
	in := makeInputs(cfg.scale, cfg.seed)
	m := &mirror{base: in.ref.a, baseNNZ: len(in.g.Src), liveSet: map[[2]int]float64{}}
	first := m.draw(rand.New(rand.NewSource(cfg.seed+3)), updateBatch)
	var lt *layerTrace
	if cfg.trace {
		lt = newLayerTrace()
	}
	// The set-up pre-inserts one batch, so every measured step deletes as
	// many edges as it inserts and nnz stays constant over the run.
	p, setup, err := setupGraph(cfg, in, lt, func(p *graphPair) error {
		if _, _, err := write(p, first, nil); err != nil {
			return err
		}
		return warmAll(p, in.srcs[0], libraryPR)
	})
	if err != nil {
		return err
	}
	defer p.free()
	m.apply(first, nil)
	rep.logf("graph n=%d stored=%d batch=%d inserts+%d deletes sources=%v", in.g.N, len(in.g.Src), updateBatch, updateBatch, in.srcs)

	rng := rand.New(rand.NewSource(cfg.seed))
	checkRng := rand.New(rand.NewSource(cfg.seed + 4))
	var steps, tracedSteps []stepTimes
	end := deadline(cfg.seconds)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		ins := m.draw(rng, updateBatch)
		dels := append([]wedge(nil), m.live[:updateBatch]...)
		src := in.srcs[rng.Intn(len(in.srcs))]
		reads := updateReads[i%len(updateReads)]
		// Whole rotations alternate between untraced and traced, so both
		// halves see every read.
		traced := lt != nil && (i/len(updateReads))%2 == 1
		runtime.GC() // outside the timed calls: each step starts from a collected heap
		var st stepTimes
		if traced {
			lt.units++
			err = lt.traced("step", func(root int) error {
				var err error
				st, err = updateStep(rep, p, m, in, ins, dels, src, reads, i, checkRng, lt, root)
				return err
			})
		} else {
			st, err = updateStep(rep, p, m, in, ins, dels, src, reads, i, checkRng, nil, 0)
		}
		if err != nil {
			return err
		}
		if traced {
			tracedSteps = append(tracedSteps, st)
		} else {
			steps = append(steps, st)
		}
	}

	var writeMs, bfsMs, setMs, stepMs, waitMs []float64
	reads := map[string][]float64{}
	for _, st := range steps {
		writeMs = append(writeMs, st.write)
		bfsMs = append(bfsMs, st.bfs)
		setMs = append(setMs, st.set)
		waitMs = append(waitMs, st.write-st.set)
		total := st.write + st.bfs
		for c, xs := range st.reads {
			reads[c] = append(reads[c], xs...)
			total += sum(xs)
		}
		stepMs = append(stepMs, total)
	}
	if lt != nil {
		calls := 8 * updateBatch // SetElement and RemoveElement, two matrices, both directions
		rep.metrics.set("grb.setelement_us", 1000*median(setMs)/float64(calls))
		rep.metrics.set("grb.wait_ms", median(waitMs))
		var tr []float64
		for _, st := range tracedSteps {
			tr = append(tr, st.write+st.bfs)
		}
		var un []float64
		for k := range writeMs {
			un = append(un, writeMs[k]+bfsMs[k])
		}
		return finishTraced(cfg, rep, lt, p, in.srcs, overheadPct(tr, un), nil)
	}
	rep.metrics.set("setup_s", median(setup))
	rep.logf("setup_s samples=%v", setup)
	rep.setDist("bfs_ms", "", summarize(bfsMs))
	rep.setDist("sssp_ms", "", summarize(reads["sssp"]))
	rep.setDist("pagerank_ms", "", summarize(reads["pagerank"]))
	rep.setDist("triangles_ms", "", summarize(reads["triangles"]))
	rep.setDist("ego.p50_ms", "", summarize(append(append([]float64(nil), reads["ego1"]...), reads["ego2"]...)))
	rep.metrics.set("edges_per_s", 2*updateBatch/(median(writeMs)/1000))
	rep.metrics.set("capacity_qps", float64(len(stepMs))/(sum(stepMs)/1000))
	rep.setDist("lo.p50_ms", "lo.tail_ms", summarize(bfsMs))
	rep.setDist("hi.p50_ms", "hi.tail_ms", summarize(writeMs))
	return nil
}

// updateStep is one step: write the batch, check it against the mirror,
// BFS right after the write, then the step's reads. Failures are counted
// in rep; an error return means the benchmark cannot continue.
func updateStep(rep *report, p *graphPair, m *mirror, in inputs, ins, dels []wedge, src int, reads []string,
	i int, checkRng *rand.Rand, lt *layerTrace, root int) (stepTimes, error) {
	st := stepTimes{reads: map[string][]float64{}}
	rep.attempted++
	set, total, err := write(p, ins, dels)
	if lt != nil {
		lt.note("write", root, time.Now().Add(-total), total)
	}
	if err != nil {
		rep.fail(&rep.errs, "write: %v", err)
		return st, fmt.Errorf("write batch %d: %w", i, err)
	}
	st.set, st.write = ms(set), ms(total)
	m.apply(ins, dels)
	if err := m.check(p, checkRng, dels); err != nil {
		rep.fail(&rep.wrong, "step %d: %v", i, err)
	}

	q := query{class: "bfs", src: src}
	rep.attempted++
	start := time.Now()
	a, err := p.run(q, libraryPR)
	d := time.Since(start)
	if lt != nil {
		lt.note("bfs", root, start, d)
	}
	if err != nil {
		rep.fail(&rep.errs, "%v", err)
	} else {
		st.bfs = ms(d)
		if i%verifyEvery == 0 {
			idx, vals, err := a.levels.ExtractTuples()
			if err == nil {
				err = checkLevels(idx, vals, m.base.bfsLevels(src, m.extraAdj()))
			}
			if err != nil {
				rep.fail(&rep.wrong, "step %d bfs(src=%d): %v", i, src, err)
			}
		}
		a.free()
	}

	for _, c := range reads {
		q := query{class: c, src: in.srcs[checkRng.Intn(len(in.srcs))]}
		rep.attempted++
		start := time.Now()
		a, err := p.run(q, libraryPR)
		d := time.Since(start)
		if lt != nil {
			lt.note(c, root, start, d)
		}
		if err != nil {
			rep.fail(&rep.errs, "%v", err)
			continue
		}
		if c == "pagerank" && a.iters != libraryPR.maxIter {
			rep.fail(&rep.wrong, "pagerank: %d iterations, want %d", a.iters, libraryPR.maxIter)
		}
		a.free()
		st.reads[c] = append(st.reads[c], ms(d))
	}
	return st, nil
}
