package main

import (
	"math/rand"
	"runtime"
	"time"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
)

// weightSeed is the edge-weight seed serve.FromGen uses; the library and
// update graphs use it too, so one (graph seed, scale) pair names the same
// weighted graph in every workload.
const weightSeed = 7

// sourcePool is how many distinct giant-component sources a run draws.
const sourcePool = 32

// makeGraph is the seeded input: symmetrized Graph500 RMAT plus weights.
func makeGraph(scale int, seed int64) (gen.Graph, []float64) {
	g := gen.Graph500RMAT(scale, edgeFactor, seed).Symmetrize()
	return g, gen.UniformWeights(g, 1, 2, weightSeed)
}

// inputs is what a run derives from the seed outside any timed region:
// the edge list, the reference graph and the traversal sources.
type inputs struct {
	g    gen.Graph
	w    []float64
	ref  *refCache
	srcs []int
}

func makeInputs(scale int, seed int64) inputs {
	g, w := makeGraph(scale, seed)
	ref := newRefCache(newAdjList(g, w))
	return inputs{g: g, w: w, ref: ref, srcs: ref.a.giantSources(sourcePool, seed)}
}

// setupGraph repeats the set-up reps times — generate, build, warm — and
// keeps the last graph. It returns the set-up times in seconds. In a
// traced run the registry records the set-up's bulk builds.
func setupGraph(cfg config, in inputs, lt *layerTrace, warm func(*graphPair) error) (*graphPair, []float64, error) {
	reps := cfg.setupReps
	if lt != nil {
		reps = 1 // a traced run reports no setup_s
		defer lt.captureBuild()
		grb.EnableMetrics(true)
	}
	var setup []float64
	var p *graphPair
	for r := 0; r < reps; r++ {
		if p != nil {
			p.free()
		}
		runtime.GC() // every set-up starts from the same heap
		start := time.Now()
		g, w := makeGraph(cfg.scale, cfg.seed)
		var err error
		if p, err = buildPair(g, w, cfg.threads); err != nil {
			return nil, nil, err
		}
		if err := warm(p); err != nil {
			p.free()
			return nil, nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	return p, setup, nil
}

// warmAll runs every class once so lazily built views (transposes, block
// grids) exist before timing, as they do in a long-running process.
func warmAll(p *graphPair, src int, pr prParams) error {
	for _, c := range serveClasses {
		a, err := p.run(query{class: c, src: src}, pr)
		if err != nil {
			return err
		}
		a.free()
	}
	return nil
}

// libraryRound is one caller's analysis round: BFS, SSSP, PageRank and
// triangle counting, plus ego networks at the serve mix's 5:1 ratio of
// one- to two-hop queries. The cheap source-dependent calls run four times
// a round so their medians rest on many sources.
func libraryRound(rng *rand.Rand, srcs []int) []query {
	pick := func() int { return srcs[rng.Intn(len(srcs))] }
	var qs []query
	for i := 0; i < 4; i++ {
		qs = append(qs, query{"bfs", pick()}, query{"sssp", pick()})
	}
	qs = append(qs, query{"pagerank", 0}, query{"triangles", 0})
	for i := 0; i < 5; i++ {
		qs = append(qs, query{"ego1", pick()})
	}
	return append(qs, query{"ego2", pick()})
}

// timedCall runs one query, verifies it outside the timed region, and
// returns its latency in ms (false when it failed). In a traced unit the
// call also becomes a span under root.
func timedCall(rep *report, p *graphPair, ref *refCache, q query, pr prParams, lt *layerTrace, root int) (float64, bool) {
	rep.attempted++
	start := time.Now()
	a, err := p.run(q, pr)
	d := time.Since(start)
	if lt != nil {
		lt.note(q.class, root, start, d)
	}
	if err != nil {
		rep.fail(&rep.errs, "%v", err)
		return 0, false
	}
	defer a.free()
	if err := verify(ref, q, pr, a); err != nil {
		rep.fail(&rep.wrong, "%s(src=%d): %v", q.class, q.src, err)
		return ms(d), false
	}
	return ms(d), true
}

func runLibrary(cfg config, rep *report) error {
	in := makeInputs(cfg.scale, cfg.seed)
	var lt *layerTrace
	if cfg.trace {
		lt = newLayerTrace()
	}
	p, setup, err := setupGraph(cfg, in, lt, func(p *graphPair) error { return warmAll(p, in.srcs[0], libraryPR) })
	if err != nil {
		return err
	}
	defer p.free()
	rep.logf("graph n=%d stored=%d sources=%v", in.g.N, len(in.g.Src), in.srcs)

	// A traced run alternates untraced and traced rounds, so the tracing
	// overhead is measured on neighbouring rounds.
	rng := rand.New(rand.NewSource(cfg.seed))
	lat := map[string][]float64{}
	var rounds, tracedRounds []float64
	end := deadline(cfg.seconds)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		qs := libraryRound(rng, in.srcs)
		roundMs := 0.0
		runtime.GC() // outside the timed calls: each round starts from a collected heap
		if lt != nil && i%2 == 1 {
			lt.units++
			_ = lt.traced("round", func(root int) error {
				for _, q := range qs {
					d, _ := timedCall(rep, p, in.ref, q, libraryPR, lt, root)
					roundMs += d
				}
				return nil
			})
			tracedRounds = append(tracedRounds, roundMs)
			continue
		}
		for _, q := range qs {
			d, ok := timedCall(rep, p, in.ref, q, libraryPR, nil, 0)
			roundMs += d
			if ok {
				lat[q.class] = append(lat[q.class], d)
			}
		}
		rounds = append(rounds, roundMs)
	}

	if lt != nil {
		return finishTraced(cfg, rep, lt, p, in.srcs, overheadPct(tracedRounds, rounds), nil)
	}
	rep.metrics.set("setup_s", median(setup))
	rep.logf("setup_s samples=%v", setup)
	rep.setDist("bfs_ms", "", summarize(lat["bfs"]))
	rep.setDist("sssp_ms", "", summarize(lat["sssp"]))
	rep.setDist("pagerank_ms", "", summarize(lat["pagerank"]))
	rep.setDist("triangles_ms", "", summarize(lat["triangles"]))
	rep.setDist("ego.p50_ms", "", summarize(append(append([]float64(nil), lat["ego1"]...), lat["ego2"]...)))
	rep.metrics.set("edges_per_s", in.ref.componentEdges(in.srcs[0])/(median(lat["bfs"])/1000))
	var all []float64
	for _, xs := range lat {
		all = append(all, xs...)
	}
	rep.metrics.set("capacity_qps", float64(len(all))/(sum(all)/1000))
	rep.setDist("lo.p50_ms", "lo.tail_ms", summarize(lat["bfs"]))
	rep.setDist("hi.p50_ms", "hi.tail_ms", summarize(all))
	return nil
}
