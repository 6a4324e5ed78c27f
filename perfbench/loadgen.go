package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// request is one planned query of the serve mix.
type request struct {
	class, tenant, path string
	src                 int
}

// mixEntry is one class's share of the serve traffic and its tenant:
// interactive traversals and ego networks, analytics PageRank and
// triangle counts.
type mixEntry struct {
	class, tenant string
	weight        int
}

var serveMix = []mixEntry{
	{"bfs", "interactive", 30},
	{"sssp", "interactive", 20},
	{"ego1", "interactive", 25},
	{"ego2", "interactive", 5},
	{"pagerank", "analytics", 15},
	{"triangles", "analytics", 5},
}

var tenants = []string{"interactive", "analytics"}

func mixWeight(class string) int {
	for _, m := range serveMix {
		if m.class == class {
			return m.weight
		}
	}
	return 0
}

func classPath(class string, src int) string {
	switch class {
	case "bfs", "sssp":
		return fmt.Sprintf("/query/%s?src=%d", class, src)
	case "ego1", "ego2":
		return fmt.Sprintf("/query/ego?src=%d&hops=%d", src, egoHops(class))
	case "pagerank":
		return fmt.Sprintf("/query/pagerank?maxiter=%d", servePR.maxIter)
	}
	return "/query/triangles"
}

// mixUnit is the percentage each slot of a mix period stands for: every
// period of 100/mixUnit consecutive requests holds each class exactly
// weight/mixUnit times.
const mixUnit = 5

// planRequests draws n queries with the seed. The classes follow the mix
// exactly within every period, in a shuffled order, so no stretch of the
// plan is heavier than another by chance; sources come from the
// giant-component pool.
func planRequests(n int, seed int64, srcs []int) []request {
	rng := rand.New(rand.NewSource(seed))
	var period []mixEntry
	for _, m := range serveMix {
		for k := 0; k < m.weight/mixUnit; k++ {
			period = append(period, m)
		}
	}
	out := make([]request, 0, n+len(period))
	for len(out) < n {
		rng.Shuffle(len(period), func(i, j int) { period[i], period[j] = period[j], period[i] })
		for _, m := range period {
			src := srcs[rng.Intn(len(srcs))]
			out = append(out, request{class: m.class, tenant: m.tenant, path: classPath(m.class, src), src: src})
		}
	}
	return out[:n]
}

// sample is one issued request's outcome.
type sample struct {
	req    *request
	status int // 0 when the request failed before a response
	err    error
	latMs  float64 // from the due instant (open loop) or the send (closed loop)
	lateMs float64 // how late the generator dispatched it (open loop)
	body   []byte  // kept for sampled verification
	sent   time.Time
	dur    time.Duration // from the send to the last body byte
}

// newClient caps the client at conns connections: the benchmark never
// opens more connections than the host has CPUs.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// do issues one request and reads the whole body, keeping it when asked.
func do(client *http.Client, base string, r *request, keep bool) (s sample) {
	s.req = r
	req, err := http.NewRequest(http.MethodGet, base+r.path, nil)
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("X-Grb-Tenant", r.tenant)
	s.sent = time.Now()
	defer func() { s.dur = time.Since(s.sent) }()
	resp, err := client.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	if keep {
		s.body, s.err = io.ReadAll(resp.Body)
	} else {
		_, s.err = io.Copy(io.Discard, resp.Body)
	}
	return s
}

// keepEvery is the verification sampling rate: one response in keepEvery
// is kept and decoded after the phase ends.
const keepEvery = 8

// closedLoop runs workers clients that each send the next planned request
// as soon as the previous one returns, until dur has passed.
func closedLoop(client *http.Client, base string, plan []request, workers int, dur time.Duration) ([]sample, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	stop := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for time.Now().Before(stop) {
				i := int(next.Add(1)-1) % len(plan)
				t0 := time.Now()
				s := do(client, base, &plan[i], i%keepEvery == 0)
				s.latMs = ms(time.Since(t0))
				local = append(local, s)
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// openLoop sends plan[i] at start + i/rate whatever the server does, and
// times each request from that due instant, so a stall is charged to every
// request queued behind it. lateMs records how far behind its schedule
// the generator itself dispatched each request.
func openLoop(client *http.Client, base string, plan []request, rate float64) []sample {
	out := make([]sample, len(plan))
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range plan {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			late := time.Since(due)
			s := do(client, base, &plan[i], i%keepEvery == 0)
			s.latMs = ms(time.Since(due))
			s.lateMs = ms(late)
			out[i] = s
		}(i, due)
	}
	wg.Wait()
	return out
}
