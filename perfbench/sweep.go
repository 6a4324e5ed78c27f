package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	grb "github.com/grblas/grb"
)

// sweepReps is how many times the sweep times each serve class per layer.
const sweepReps = 9

// serveSweep times every serve class layer by layer on the served graph:
// the lagraph call and its ExtractTuples on the identical library copy,
// the handler into a recorder (no network), and the same request over
// loopback. The differences give the serve layer's own overhead and the
// transport's.
func serveSweep(cfg config, rep *report, f *serveFixture) error {
	// Direct calls run under a request-shaped context: cancellable, with
	// the governor's high-water mark as budget, since a budget can change
	// which kernel route an operation takes.
	req, err := f.copy.view(grb.WithCancel(), grb.WithMemoryLimit(serverConfig(cfg.threads).MemHighWater))
	if err != nil {
		return err
	}
	defer req.free()
	transport, weights := 0.0, 0
	for _, c := range serveClasses {
		var direct, extract, handler, loop []float64
		var bytes int
		for r := 0; r < sweepReps; r++ {
			q := query{class: c, src: f.in.srcs[r%len(f.in.srcs)]}
			start := time.Now()
			a, err := req.run(q, servePR)
			if err != nil {
				return err
			}
			direct = append(direct, ms(time.Since(start)))
			start = time.Now()
			err = extractAnswer(a)
			extract = append(extract, ms(time.Since(start)))
			if err == nil && r == 0 {
				err = firstCallFacts(rep, c, a)
			}
			a.free()
			if err != nil {
				return err
			}

			req := request{class: c, tenant: tenantOf(c), path: classPath(c, q.src), src: q.src}
			hr := httptest.NewRequest(http.MethodGet, req.path, nil)
			hr.Header.Set("X-Grb-Tenant", req.tenant)
			rec := httptest.NewRecorder()
			start = time.Now()
			f.srv.Handler().ServeHTTP(rec, hr)
			handler = append(handler, ms(time.Since(start)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("sweep %s: handler status %d", req.path, rec.Code)
			}
			bytes = rec.Body.Len()

			s := do(f.client, f.ts.URL, &req, false)
			if s.err != nil || s.status != http.StatusOK {
				return fmt.Errorf("sweep %s: status %d: %v", req.path, s.status, s.err)
			}
			loop = append(loop, ms(s.dur))
		}
		mb, err := allocMB(func() error {
			a, err := req.run(query{class: c, src: f.in.srcs[0]}, servePR)
			if err == nil {
				a.free()
			}
			return err
		})
		if err != nil {
			return err
		}
		d, x, h, l := median(direct), median(extract), median(handler), median(loop)
		rep.metrics.set("lagraph."+c+"_ms", d)
		rep.metrics.set("lagraph."+c+".alloc_mb", mb)
		rep.metrics.set("serve.handler_ms."+c, h)
		rep.metrics.set("serve.overhead_ms."+c, h-d-x)
		rep.metrics.set("serve.resp_bytes."+c, float64(bytes))
		w := mixWeight(c)
		transport += float64(w) * (l - h)
		weights += w
		rep.logf("sweep %-9s lagraph=%.3fms extract=%.3fms handler=%.3fms loopback=%.3fms bytes=%d alloc=%.2fMB",
			c, d, x, h, l, bytes, mb)
	}
	rep.metrics.set("serve.transport_ms", transport/float64(weights))
	return nil
}

// extractAnswer does what a handler does with a result before encoding it.
func extractAnswer(a answer) error {
	var err error
	switch {
	case a.levels != nil:
		_, _, err = a.levels.ExtractTuples()
	case a.floats != nil:
		_, _, err = a.floats.ExtractTuples()
	case a.sub != nil:
		_, _, _, err = a.sub.ExtractTuples()
	}
	return err
}

// firstCallFacts records the work-size facts of a class's first sweep call.
func firstCallFacts(rep *report, class string, a answer) error {
	switch class {
	case "bfs":
		_, lv, err := a.levels.ExtractTuples()
		if err != nil {
			return err
		}
		depth := 0
		for _, l := range lv {
			if l+1 > depth {
				depth = l + 1
			}
		}
		rep.metrics.set("lagraph.bfs_levels", float64(depth))
		rep.metrics.set("lagraph.bfs_reached", float64(len(lv)))
	case "pagerank":
		rep.metrics.set("lagraph.pagerank_iters", float64(a.iters))
	}
	return nil
}

// readServeGauges copies the control-plane gauges from /metrics.
func readServeGauges(rep *report, f *serveFixture) error {
	resp, err := f.client.Get(f.ts.URL + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var doc struct {
		Serve map[string]int64 `json:"serve"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	dropped := int64(0)
	for _, t := range tenants {
		rep.metrics.set("serve.limiter_window."+t, float64(doc.Serve["limiter.window."+t]))
		dropped += doc.Serve["queue.dropped_deadline."+t]
	}
	rep.metrics.set("serve.govern_sheds", float64(doc.Serve["govern.sheds"]))
	rep.metrics.set("serve.queue_dropped", float64(dropped))
	return nil
}

// finishTraced completes a traced run on any workload: kernel layers from
// the traced units, the parallel speedup on the workload's graph, the serve
// sweep (on f, or on a served graph of its own), the gauges, and the trace
// file. Metrics of layers the workload does not load read 0.
func finishTraced(cfg config, rep *report, lt *layerTrace, p *graphPair, srcs []int, overhead float64, f *serveFixture) error {
	rep.metrics.set("obsv.overhead_pct", overhead)
	setKernelLayers(rep, lt)
	if err := speedupProbe(cfg, rep, p, srcs[0]); err != nil {
		return err
	}
	if f == nil {
		var err error
		if f, err = newServeFixture(cfg); err != nil {
			return err
		}
		defer f.close()
	}
	if err := serveSweep(cfg, rep, f); err != nil {
		return err
	}
	if err := readServeGauges(rep, f); err != nil {
		return err
	}
	for _, n := range []string{"grb.setelement_us", "grb.wait_ms", "serve.status_4xx", "serve.status_5xx", "serve.shed", "loadgen.late_ms"} {
		if _, ok := rep.metrics.values[n]; !ok {
			rep.metrics.set(n, 0)
		}
	}
	path, err := lt.writeTrace(cfg.traceDir, cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	rep.logf("trace: %d spans in %s", len(lt.spans), path)
	return nil
}
