package main

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/grblas/grb/gen"
)

// adjList is the plain-Go reference graph: out-adjacency in CSR form, each
// row sorted by destination, with the same per-edge weights the matrices
// are built from. Every algorithm below is a textbook implementation that
// shares no code with the library, so a library result that agrees with it
// is checked independently.
type adjList struct {
	n   int
	off []int
	dst []int
	w   []float64
}

func newAdjList(g gen.Graph, w []float64) *adjList {
	a := &adjList{n: g.N, off: make([]int, g.N+1), dst: make([]int, len(g.Src)), w: make([]float64, len(g.Src))}
	for _, s := range g.Src {
		a.off[s+1]++
	}
	for i := 0; i < g.N; i++ {
		a.off[i+1] += a.off[i]
	}
	pos := append([]int(nil), a.off[:g.N]...)
	for k, s := range g.Src {
		a.dst[pos[s]] = g.Dst[k]
		a.w[pos[s]] = w[k]
		pos[s]++
	}
	for i := 0; i < g.N; i++ {
		row := a.off[i]
		end := a.off[i+1]
		sort.Sort(byDst{a.dst[row:end], a.w[row:end]})
	}
	return a
}

type byDst struct {
	d []int
	w []float64
}

func (b byDst) Len() int           { return len(b.d) }
func (b byDst) Less(i, j int) bool { return b.d[i] < b.d[j] }
func (b byDst) Swap(i, j int) {
	b.d[i], b.d[j] = b.d[j], b.d[i]
	b.w[i], b.w[j] = b.w[j], b.w[i]
}

// neighbors calls f for every out-edge of u.
func (a *adjList) neighbors(u int, f func(v int, w float64)) {
	for k := a.off[u]; k < a.off[u+1]; k++ {
		f(a.dst[k], a.w[k])
	}
}

// bfsLevels is queue BFS; -1 marks unreachable vertices. extra, when not
// nil, adds out-edges beyond the CSR (the update workload's live inserts).
func (a *adjList) bfsLevels(src int, extra map[int][]int) []int {
	lv := make([]int, a.n)
	for i := range lv {
		lv[i] = -1
	}
	lv[src] = 0
	q := []int{src}
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		visit := func(v int, _ float64) {
			if lv[v] < 0 {
				lv[v] = lv[u] + 1
				q = append(q, v)
			}
		}
		a.neighbors(u, visit)
		for _, v := range extra[u] {
			visit(v, 0)
		}
	}
	return lv
}

type distItem struct {
	v int
	d float64
}
type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// dijkstra returns shortest-path distances; +Inf marks unreachable.
func (a *adjList) dijkstra(src int) []float64 {
	d := make([]float64, a.n)
	for i := range d {
		d[i] = math.Inf(1)
	}
	d[src] = 0
	h := &distHeap{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.d > d[it.v] {
			continue
		}
		a.neighbors(it.v, func(v int, w float64) {
			if nd := it.d + w; nd < d[v] {
				d[v] = nd
				heap.Push(h, distItem{v, nd})
			}
		})
	}
	return d
}

// pagerank is the power iteration lagraph.PageRank documents: weights are
// link multiplicities, dangling rank is spread uniformly, and iteration
// stops when the L1 change falls below tol or after maxIter rounds.
func (a *adjList) pagerank(damping, tol float64, maxIter int) ([]float64, int) {
	n := a.n
	invdeg := make([]float64, n)
	for u := 0; u < n; u++ {
		if a.off[u] == a.off[u+1] {
			continue
		}
		s := 0.0
		a.neighbors(u, func(_ int, w float64) { s += w })
		invdeg[u] = 1 / s
	}
	r := make([]float64, n)
	for i := range r {
		r[i] = 1 / float64(n)
	}
	for iter := 1; iter <= maxIter; iter++ {
		t := make([]float64, n)
		dmass := 0.0
		for u := 0; u < n; u++ {
			if a.off[u] == a.off[u+1] {
				dmass += r[u]
				continue
			}
			wu := r[u] * invdeg[u]
			a.neighbors(u, func(v int, w float64) { t[v] += wu * w })
		}
		base := (1-damping)/float64(n) + damping*dmass/float64(n)
		delta := 0.0
		for v := range t {
			nv := base + damping*t[v]
			delta += math.Abs(nv - r[v])
			t[v] = nv
		}
		r = t
		if delta < tol {
			return r, iter
		}
	}
	return r, maxIter
}

// triangles counts triangles of a symmetric graph without self-loops by
// orienting each edge from lower to higher (degree, id) rank and merging
// the sorted forward lists.
func (a *adjList) triangles() int64 {
	rank := func(u int) [2]int { return [2]int{a.off[u+1] - a.off[u], u} }
	less := func(u, v int) bool {
		ru, rv := rank(u), rank(v)
		return ru[0] < rv[0] || (ru[0] == rv[0] && ru[1] < rv[1])
	}
	fwd := make([][]int, a.n)
	for u := 0; u < a.n; u++ {
		a.neighbors(u, func(v int, _ float64) {
			if less(u, v) {
				fwd[u] = append(fwd[u], v)
			}
		})
	}
	var count int64
	for u := 0; u < a.n; u++ {
		for _, v := range fwd[u] {
			x, y := fwd[u], fwd[v]
			for i, j := 0, 0; i < len(x) && j < len(y); {
				switch {
				case x[i] < y[j]:
					i++
				case x[i] > y[j]:
					j++
				default:
					count++
					i++
					j++
				}
			}
		}
	}
	return count
}

// ego returns the sorted vertices within hops of src and the number of
// edges of the subgraph they induce.
func (a *adjList) ego(src, hops int) ([]int, int) {
	lv := make(map[int]int, 64)
	lv[src] = 0
	q := []int{src}
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		if lv[u] == hops {
			continue
		}
		a.neighbors(u, func(v int, _ float64) {
			if _, ok := lv[v]; !ok {
				lv[v] = lv[u] + 1
				q = append(q, v)
			}
		})
	}
	verts := make([]int, 0, len(lv))
	for v := range lv {
		verts = append(verts, v)
	}
	sort.Ints(verts)
	edges := 0
	for _, u := range verts {
		a.neighbors(u, func(v int, _ float64) {
			if _, ok := lv[v]; ok {
				edges++
			}
		})
	}
	return verts, edges
}

// giantSources draws k distinct sources, with the seed, from the largest
// connected component: RMAT leaves many isolated vertices, and a source
// drawn among them makes a traversal trivially cheap, so uniform sources
// would mix two very different costs into one distribution.
func (a *adjList) giantSources(k int, seed int64) []int {
	comp := make([]int, a.n)
	for i := range comp {
		comp[i] = -1
	}
	best, bestSize := -1, 0
	for s := 0; s < a.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = s
		size := 0
		q := []int{s}
		for len(q) > 0 {
			u := q[0]
			q = q[1:]
			size++
			a.neighbors(u, func(v int, _ float64) {
				if comp[v] < 0 {
					comp[v] = s
					q = append(q, v)
				}
			})
		}
		if size > bestSize {
			best, bestSize = s, size
		}
	}
	var members []int
	for v, c := range comp {
		if c == best {
			members = append(members, v)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	if k > len(members) {
		k = len(members)
	}
	return append([]int(nil), members[:k]...)
}

// refCache memoizes reference answers per (algorithm, source) so each is
// computed once per run, outside every timed region.
type refCache struct {
	a      *adjList
	levels map[int][]int
	dists  map[int][]float64
	egos   map[[2]int]egoRef
	ranks  map[[2]float64][]float64
	tri    int64
	triOK  bool
}

type egoRef struct {
	verts []int
	edges int
}

func newRefCache(a *adjList) *refCache {
	return &refCache{a: a, levels: map[int][]int{}, dists: map[int][]float64{},
		egos: map[[2]int]egoRef{}, ranks: map[[2]float64][]float64{}}
}

func (r *refCache) bfs(src int) []int {
	if v, ok := r.levels[src]; ok {
		return v
	}
	v := r.a.bfsLevels(src, nil)
	r.levels[src] = v
	return v
}

// componentEdges counts the undirected edges of src's component: the
// edges a BFS from src traverses, as Graph500 counts them for TEPS.
func (r *refCache) componentEdges(src int) float64 {
	deg := 0
	for v, l := range r.bfs(src) {
		if l >= 0 {
			deg += r.a.off[v+1] - r.a.off[v]
		}
	}
	return float64(deg) / 2
}

func (r *refCache) sssp(src int) []float64 {
	if v, ok := r.dists[src]; ok {
		return v
	}
	v := r.a.dijkstra(src)
	r.dists[src] = v
	return v
}

func (r *refCache) pagerank(tol float64, maxIter int) []float64 {
	key := [2]float64{tol, float64(maxIter)}
	if v, ok := r.ranks[key]; ok {
		return v
	}
	v, _ := r.a.pagerank(prDamping, tol, maxIter)
	r.ranks[key] = v
	return v
}

func (r *refCache) triangles() int64 {
	if !r.triOK {
		r.tri, r.triOK = r.a.triangles(), true
	}
	return r.tri
}

func (r *refCache) ego(src, hops int) egoRef {
	key := [2]int{src, hops}
	if v, ok := r.egos[key]; ok {
		return v
	}
	verts, edges := r.a.ego(src, hops)
	v := egoRef{verts, edges}
	r.egos[key] = v
	return v
}

// The comparisons below take a sparse result as (indices, values) and the
// dense reference, where a missing entry is -1 (levels) or +Inf (dists).

func checkLevels(idx []int, vals []int, want []int) error {
	reached := 0
	for _, l := range want {
		if l >= 0 {
			reached++
		}
	}
	if len(idx) != reached || len(vals) != len(idx) {
		return fmt.Errorf("bfs: %d entries, reference reaches %d", len(idx), reached)
	}
	for k, i := range idx {
		if i < 0 || i >= len(want) {
			return fmt.Errorf("bfs: index %d out of range", i)
		}
		if want[i] != vals[k] {
			return fmt.Errorf("bfs: vertex %d level %d, reference %d", i, vals[k], want[i])
		}
	}
	return nil
}

func checkFloats(what string, idx []int, vals []float64, want []float64, rel float64) error {
	expect := 0
	for _, d := range want {
		if !math.IsInf(d, 1) {
			expect++
		}
	}
	if len(idx) != expect || len(vals) != len(idx) {
		return fmt.Errorf("%s: %d entries, reference has %d", what, len(idx), expect)
	}
	for k, i := range idx {
		if i < 0 || i >= len(want) {
			return fmt.Errorf("%s: index %d out of range", what, i)
		}
		if d := math.Abs(vals[k] - want[i]); d > rel*math.Max(math.Abs(want[i]), 1e-12) || math.IsNaN(vals[k]) {
			return fmt.Errorf("%s: vertex %d value %g, reference %g", what, i, vals[k], want[i])
		}
	}
	return nil
}

func checkEgo(verts []int, edges int, want egoRef) error {
	if len(verts) != len(want.verts) || edges != want.edges {
		return fmt.Errorf("ego: %d vertices/%d edges, reference %d/%d", len(verts), edges, len(want.verts), want.edges)
	}
	for k := range verts {
		if verts[k] != want.verts[k] {
			return fmt.Errorf("ego: vertex %d is %d, reference %d", k, verts[k], want.verts[k])
		}
	}
	return nil
}
