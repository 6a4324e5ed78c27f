package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"github.com/grblas/grb/serve"
)

// The serve workload's offered loads. They are fixed constants, never
// derived from a measured capacity, so every commit is measured at the same
// load; BENCHMARK.json states them in the serve workload's why.
const (
	loRate = 60.0  // requests per second
	hiRate = 100.0 // requests per second
	// tailSamples requests per open-loop phase give its tail, a p98.8,
	// ten samples beyond it.
	tailSamples = 810
	// minLoopsS is the least time the two closed loops share; soloShare
	// of it goes to the one-client loop.
	minLoopsS = 4.0
	soloShare = 0.4
)

// phases is how a serve run spends its time.
type phases struct {
	solo, closed, lo, hi time.Duration
}

// servePhases splits a run into the one-client loop, the nproc-client
// closed loop and the two open loops. Runs shorter than the full schedule shrink every
// phase in proportion.
func servePhases(seconds float64) phases {
	l, h := tailSamples/loRate, tailSamples/hiRate
	rest := seconds - l - h
	if need := l + h + minLoopsS; seconds < need {
		f := seconds / need
		l, h, rest = l*f, h*f, minLoopsS*f
	}
	sec := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	return phases{solo: sec(rest * soloShare), closed: sec(rest * (1 - soloShare)), lo: sec(l), hi: sec(h)}
}

// serverConfig is a deployment-shaped envelope: per-tenant deadlines,
// in-flight ceilings with a bounded queue, and a memory governor. With at
// most threads client connections the ceilings are never the bottleneck,
// so nothing is shed at the configured rates.
func serverConfig(threads int) serve.Config {
	return serve.Config{
		Default: serve.TenantConfig{Deadline: 5 * time.Second, MaxInFlight: threads, MaxQueue: 16},
		Tenants: map[string]serve.TenantConfig{
			"interactive": {Deadline: 2 * time.Second, MaxInFlight: 2 * threads, MaxQueue: 32, P99Target: 250 * time.Millisecond},
			"analytics":   {Deadline: 5 * time.Second, MaxInFlight: threads, MaxQueue: 16, P99Target: time.Second},
		},
		MemHighWater: 1 << 30,
	}
}

// serveFixture is a served graph behind a loopback listener, plus an
// identical library copy of it for direct calls and the plain reference.
type serveFixture struct {
	in     inputs
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	copy   *graphPair
}

func (f *serveFixture) close() {
	f.client.CloseIdleConnections()
	f.ts.Close()
	if f.copy != nil {
		f.copy.free()
	}
}

// startServer is the timed part of the serve set-up: generate, load,
// listen, and send one warm-up query per class.
func startServer(cfg config, in inputs) (*serveFixture, error) {
	g, _ := makeGraph(cfg.serveScale, cfg.seed)
	sg, err := serve.FromGen("rmat", g)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer([]*serve.Graph{sg}, serverConfig(cfg.threads))
	f := &serveFixture{in: in, srv: srv, ts: httptest.NewServer(srv.Handler()), client: newClient(cfg.threads)}
	for _, c := range serveClasses {
		r := request{class: c, tenant: tenantOf(c), path: classPath(c, in.srcs[0]), src: in.srcs[0]}
		if s := do(f.client, f.ts.URL, &r, false); s.err != nil || s.status != http.StatusOK {
			f.close()
			return nil, fmt.Errorf("warm-up %s: status %d: %v", c, s.status, s.err)
		}
	}
	return f, nil
}

// addCopy builds the fixture's library copy of the served graph, for the
// direct calls of the sweep; a deployment does not set it up.
func (f *serveFixture) addCopy(cfg config) error {
	p, err := buildPair(f.in.g, f.in.w, cfg.threads)
	f.copy = p
	return err
}

// newServeFixture sets up the served graph with its library copy.
func newServeFixture(cfg config) (*serveFixture, error) {
	f, err := startServer(cfg, makeInputs(cfg.serveScale, cfg.seed))
	if err != nil {
		return nil, err
	}
	if err := f.addCopy(cfg); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func tenantOf(class string) string {
	for _, m := range serveMix {
		if m.class == class {
			return m.tenant
		}
	}
	return "default"
}

// phaseStats is one load phase's accounting; lat and ok keep the
// successful requests in schedule order.
type phaseStats struct {
	lat     []float64
	ok      []sample
	byClass map[string][]float64
	late    []float64
	n4xx    int
	n5xx    int
	shed    int
}

// account tallies a phase's samples and verifies every kept body.
func account(rep *report, ref *refCache, samples []sample) phaseStats {
	ps := phaseStats{byClass: map[string][]float64{}}
	for i := range samples {
		s := &samples[i]
		rep.attempted++
		ps.late = append(ps.late, s.lateMs)
		switch {
		case s.err != nil:
			rep.fail(&rep.errs, "%s: %v", s.req.path, s.err)
			continue
		case s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable:
			ps.shed++
			rep.fail(&rep.shed, "%s: shed with %d", s.req.path, s.status)
			continue
		case s.status != http.StatusOK:
			if s.status < 500 {
				ps.n4xx++
			} else {
				ps.n5xx++
			}
			rep.fail(&rep.errs, "%s: status %d", s.req.path, s.status)
			continue
		}
		if s.body != nil {
			if err := verifyBody(ref, s.req, s.body); err != nil {
				rep.fail(&rep.wrong, "%s: %v", s.req.path, err)
				continue
			}
		}
		ps.lat = append(ps.lat, s.latMs)
		ps.ok = append(ps.ok, *s)
		ps.byClass[s.req.class] = append(ps.byClass[s.req.class], s.latMs)
	}
	return ps
}

// verifyBody decodes one response and compares it with the reference.
func verifyBody(ref *refCache, r *request, body []byte) error {
	var b struct {
		Indices   []int     `json:"indices"`
		Levels    []int     `json:"levels"`
		Dist      []float64 `json:"dist"`
		Ranks     []float64 `json:"ranks"`
		Triangles int64     `json:"triangles"`
		Vertices  []int     `json:"vertices"`
		EdgeSrc   []int     `json:"edge_src"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	switch r.class {
	case "bfs":
		return checkLevels(b.Indices, b.Levels, ref.bfs(r.src))
	case "sssp":
		return checkFloats("sssp", b.Indices, b.Dist, ref.sssp(r.src), 1e-9)
	case "pagerank":
		return checkFloats("pagerank", b.Indices, b.Ranks, ref.pagerank(servePR.tol, servePR.maxIter), 1e-6)
	case "triangles":
		if want := ref.triangles(); b.Triangles != want {
			return fmt.Errorf("triangles: %d, reference %d", b.Triangles, want)
		}
		return nil
	case "ego1", "ego2":
		return checkEgo(b.Vertices, len(b.EdgeSrc), ref.ego(r.src, egoHops(r.class)))
	}
	return fmt.Errorf("unknown class %q", r.class)
}

func runServe(cfg config, rep *report) error {
	var lt *layerTrace
	if cfg.trace {
		lt = newLayerTrace()
	}
	in := makeInputs(cfg.serveScale, cfg.seed)
	reps := cfg.setupReps
	if lt != nil {
		reps = 1
	}
	var setup []float64
	var f *serveFixture
	for r := 0; r < reps; r++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if f, err = startServer(cfg, in); err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	defer f.close()
	rep.logf("served graph n=%d stored=%d sources=%v rates lo=%g/s hi=%g/s conns=%d", in.g.N, len(in.g.Src), in.srcs, loRate, hiRate, cfg.threads)

	ph := servePhases(cfg.seconds)
	closedPlan := planRequests(1<<16, cfg.seed, in.srcs)
	loPlan := planRequests(int(loRate*ph.lo.Seconds()), cfg.seed+1, in.srcs)
	hiPlan := planRequests(int(hiRate*ph.hi.Seconds()), cfg.seed+2, in.srcs)
	if lt != nil {
		if err := f.addCopy(cfg); err != nil {
			return err
		}
		return traceServe(cfg, rep, lt, f, closedPlan, ph.closed, loPlan, hiPlan)
	}

	// Each phase starts from a collected heap, so the garbage one phase
	// leaves does not set the next one's collection cadence.
	runtime.GC()
	soloSamples, _ := closedLoop(f.client, f.ts.URL, closedPlan, 1, ph.solo)
	solo := account(rep, in.ref, soloSamples)
	runtime.GC()
	closedSamples, elapsed := closedLoop(f.client, f.ts.URL, closedPlan, cfg.threads, ph.closed)
	closed := account(rep, in.ref, closedSamples)
	runtime.GC()
	lo := account(rep, in.ref, openLoop(f.client, f.ts.URL, loPlan, loRate))
	runtime.GC()
	hi := account(rep, in.ref, openLoop(f.client, f.ts.URL, hiPlan, hiRate))

	rep.metrics.set("setup_s", median(setup))
	rep.logf("setup_s samples=%v", setup)
	rep.metrics.set("capacity_qps", capacity(closed.ok, elapsed))
	rep.logf("closed loop: %d ok in %.2fs with %d clients", len(closed.lat), elapsed.Seconds(), cfg.threads)
	// The class latencies come from the one-client loop, where each
	// request has the server to itself: the open loops overlap requests by
	// chance, and the closed loop's two clients contend in a pattern that
	// changes from run to run.
	bfs := summarize(solo.byClass["bfs"])
	rep.setDist("bfs_ms", "", bfs)
	rep.setDist("sssp_ms", "", summarize(solo.byClass["sssp"]))
	rep.setDist("pagerank_ms", "", summarize(solo.byClass["pagerank"]))
	rep.setDist("triangles_ms", "", summarize(solo.byClass["triangles"]))
	var ego []float64
	for _, s := range hi.ok {
		if s.req.class == "ego1" || s.req.class == "ego2" {
			ego = append(ego, s.latMs)
		}
	}
	rep.setDist("ego.p50_ms", "", summarize(ego))
	rep.metrics.set("edges_per_s", in.ref.componentEdges(in.srcs[0])/(bfs.P50/1000))
	rep.setDist("lo.p50_ms", "lo.tail_ms", summarize(lo.lat))
	rep.setDist("hi.p50_ms", "hi.tail_ms", summarize(hi.lat))
	loLate, hiLate := summarize(lo.late), summarize(hi.late)
	rep.logf("generator lateness ms: lo p50=%.3f p%.1f=%.3f, hi p50=%.3f p%.1f=%.3f",
		loLate.P50, loLate.TailPct, loLate.Tail, hiLate.P50, hiLate.TailPct, hiLate.Tail)
	return nil
}

// traceServe is the serve workload's traced run: closed-loop windows
// alternate untraced and traced for the overhead, then both open loops run
// traced for the control-plane counters and the generator lateness.
func traceServe(cfg config, rep *report, lt *layerTrace, f *serveFixture, closedPlan []request, closedDur time.Duration, loPlan, hiPlan []request) error {
	const windows = 6
	var tracedMean, untracedMean []float64
	for w := 0; w < windows; w++ {
		plan := closedPlan // every window replays the same requests
		var samples []sample
		if w%2 == 1 {
			_ = lt.traced("closed", func(root int) error {
				samples, _ = closedLoop(f.client, f.ts.URL, plan, cfg.threads, closedDur/windows)
				noteSamples(lt, root, samples)
				return nil
			})
			lt.units += len(samples)
		} else {
			samples, _ = closedLoop(f.client, f.ts.URL, plan, cfg.threads, closedDur/windows)
		}
		ps := account(rep, f.in.ref, samples)
		switch {
		case len(ps.lat) == 0:
		case w%2 == 1:
			tracedMean = append(tracedMean, sum(ps.lat)/float64(len(ps.lat)))
		default:
			untracedMean = append(untracedMean, sum(ps.lat)/float64(len(ps.lat)))
		}
	}
	var late []float64
	var n4xx, n5xx, shed int
	for _, ph := range []struct {
		name string
		plan []request
		rate float64
	}{{"lo", loPlan, loRate}, {"hi", hiPlan, hiRate}} {
		var samples []sample
		_ = lt.traced(ph.name, func(root int) error {
			samples = openLoop(f.client, f.ts.URL, ph.plan, ph.rate)
			noteSamples(lt, root, samples)
			return nil
		})
		lt.units += len(samples)
		ps := account(rep, f.in.ref, samples)
		late = append(late, ps.late...)
		n4xx, n5xx, shed = n4xx+ps.n4xx, n5xx+ps.n5xx, shed+ps.shed
	}
	rep.metrics.set("serve.status_4xx", float64(n4xx))
	rep.metrics.set("serve.status_5xx", float64(n5xx))
	rep.metrics.set("serve.shed", float64(shed))
	ld := summarize(late)
	rep.metrics.set("loadgen.late_ms", ld.Tail)
	rep.logf("generator lateness ms: n=%d p50=%.3f p%.1f=%.3f", ld.N, ld.P50, ld.TailPct, ld.Tail)
	return finishTraced(cfg, rep, lt, f.copy, f.in.srcs, overheadPct(tracedMean, untracedMean), f)
}

// capacity is the closed loop's completion rate: the median over its whole
// seconds, so a short host stall costs one window, not the figure. A loop
// shorter than two seconds reports its plain rate.
func capacity(ok []sample, elapsed time.Duration) float64 {
	whole := int(elapsed / time.Second)
	if whole < 2 || len(ok) == 0 {
		return float64(len(ok)) / elapsed.Seconds()
	}
	start := ok[0].sent
	for _, s := range ok {
		if s.sent.Before(start) {
			start = s.sent
		}
	}
	perSec := make([]float64, whole)
	for _, s := range ok {
		if w := int(s.sent.Add(s.dur).Sub(start) / time.Second); w < whole {
			perSec[w]++
		}
	}
	return median(perSec)
}

// noteSamples turns a traced phase's requests into spans under root.
func noteSamples(lt *layerTrace, root int, samples []sample) {
	for _, s := range samples {
		lt.note(s.req.class, root, s.sent, s.dur)
	}
}
