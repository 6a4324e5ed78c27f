package main

import (
	"fmt"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
	"github.com/grblas/grb/lagraph"
)

const prDamping = 0.85

// prParams are a PageRank call's stopping rule. The library and update
// workloads use tol 0, so every call runs exactly maxIter iterations and
// does the same work; the serve class uses the handler's default tol.
type prParams struct {
	tol     float64
	maxIter int
}

var (
	libraryPR = prParams{tol: 0, maxIter: 20}
	servePR   = prParams{tol: 1e-6, maxIter: 10}
)

// graphPair is one graph as the library sees it: a boolean pattern for the
// structural algorithms and a float64 weighting for SSSP, PageRank and ego
// networks, both owned by one context — the representation serve.Graph
// uses too.
type graphPair struct {
	ctx     *grb.Context
	pattern *grb.Matrix[bool]
	weights *grb.Matrix[float64]
}

// buildPair builds both matrices from the edge list and completes them.
func buildPair(g gen.Graph, w []float64, threads int) (p *graphPair, err error) {
	ctx, err := grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(threads))
	if err != nil {
		return nil, err
	}
	p = &graphPair{ctx: ctx}
	defer func() {
		if err != nil {
			p.free()
		}
	}()
	if p.pattern, err = grb.NewMatrix[bool](g.N, g.N, grb.InContext(ctx)); err != nil {
		return nil, err
	}
	if p.weights, err = grb.NewMatrix[float64](g.N, g.N, grb.InContext(ctx)); err != nil {
		return nil, err
	}
	if err = p.pattern.Build(g.Src, g.Dst, gen.BoolWeights(g), grb.LOr); err != nil {
		return nil, err
	}
	if err = p.weights.Build(g.Src, g.Dst, w, grb.Plus[float64]); err != nil {
		return nil, err
	}
	if err = p.pattern.Wait(grb.Materialize); err != nil {
		return nil, err
	}
	if err = p.weights.Wait(grb.Materialize); err != nil {
		return nil, err
	}
	return p, nil
}

// view aliases both snapshots into a child context with its own options,
// so the same graph can be timed at another parallelism or under a
// request's budget.
func (p *graphPair) view(opts ...grb.ContextOption) (*graphPair, error) {
	ctx, err := grb.NewContext(grb.NonBlocking, p.ctx, opts...)
	if err != nil {
		return nil, err
	}
	v := &graphPair{ctx: ctx}
	if v.pattern, err = p.pattern.ViewInContext(ctx); err != nil {
		v.free()
		return nil, err
	}
	if v.weights, err = p.weights.ViewInContext(ctx); err != nil {
		v.free()
		return nil, err
	}
	return v, nil
}

// free releases the matrices and the context. Errors are ignored: the
// objects are garbage either way and a run never reuses them.
func (p *graphPair) free() {
	if p.pattern != nil {
		_ = p.pattern.Free()
	}
	if p.weights != nil {
		_ = p.weights.Free()
	}
	_ = p.ctx.Free()
}

// query is one algorithm call. The classes are the serve classes; ego1 and
// ego2 are EgoNet at one and two hops.
type query struct {
	class string
	src   int
}

// answer holds one call's output until it is verified and freed.
type answer struct {
	levels *grb.Vector[int]
	floats *grb.Vector[float64]
	iters  int
	count  int64
	sub    *grb.Matrix[float64]
	verts  []int
}

func (a answer) free() {
	if a.levels != nil {
		_ = a.levels.Free()
	}
	if a.floats != nil {
		_ = a.floats.Free()
	}
	if a.sub != nil {
		_ = a.sub.Free()
	}
}

func egoHops(class string) int {
	if class == "ego2" {
		return 2
	}
	return 1
}

// run makes the call into lagraph; it is the only code inside a timed
// library region.
func (p *graphPair) run(q query, pr prParams) (answer, error) {
	var a answer
	var err error
	switch q.class {
	case "bfs":
		a.levels, err = lagraph.BFSLevels(p.pattern, q.src)
	case "sssp":
		a.floats, err = lagraph.SSSP(p.weights, q.src)
	case "pagerank":
		var res *lagraph.PageRankResult
		if res, err = lagraph.PageRank(p.weights, prDamping, pr.tol, pr.maxIter); err == nil {
			a.floats, a.iters = res.Ranks, res.Iterations
		}
	case "triangles":
		a.count, err = lagraph.TriangleCount(p.pattern)
	case "ego1", "ego2":
		a.sub, a.verts, err = lagraph.EgoNet(p.weights, q.src, egoHops(q.class))
	default:
		err = fmt.Errorf("unknown class %q", q.class)
	}
	if err != nil {
		return answer{}, fmt.Errorf("%s(src=%d): %w", q.class, q.src, err)
	}
	return a, nil
}

// verify compares one answer with the plain-Go reference.
func verify(ref *refCache, q query, pr prParams, a answer) error {
	switch q.class {
	case "bfs":
		idx, vals, err := a.levels.ExtractTuples()
		if err != nil {
			return err
		}
		return checkLevels(idx, vals, ref.bfs(q.src))
	case "sssp":
		idx, vals, err := a.floats.ExtractTuples()
		if err != nil {
			return err
		}
		return checkFloats("sssp", idx, vals, ref.sssp(q.src), 1e-9)
	case "pagerank":
		if pr.tol == 0 && a.iters != pr.maxIter {
			return fmt.Errorf("pagerank: %d iterations, want %d", a.iters, pr.maxIter)
		}
		idx, vals, err := a.floats.ExtractTuples()
		if err != nil {
			return err
		}
		return checkFloats("pagerank", idx, vals, ref.pagerank(pr.tol, pr.maxIter), 1e-6)
	case "triangles":
		if want := ref.triangles(); a.count != want {
			return fmt.Errorf("triangles: %d, reference %d", a.count, want)
		}
		return nil
	case "ego1", "ego2":
		nv, err := a.sub.Nvals()
		if err != nil {
			return err
		}
		return checkEgo(a.verts, nv, ref.ego(q.src, egoHops(q.class)))
	}
	return fmt.Errorf("unknown class %q", q.class)
}
