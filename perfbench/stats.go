package main

import (
	"math"
	"sort"
	"time"
)

// dist summarizes one latency sample set the way every timing is reported:
// the median plus the tail, the highest percentile that still has at least
// ten samples beyond it (capped at p99).
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // the percentile Tail stands for; 100 means the maximum of too few samples
}

// tailRank returns the 1-based nearest rank of the tail sample among n
// sorted samples: p99 when at least ten samples lie beyond it, otherwise
// the rank that leaves exactly ten beyond. When that rank would not lie
// above the median, too few samples exist for a tail and the maximum
// stands in.
func tailRank(n int) int {
	r := int(math.Ceil(0.99 * float64(n)))
	if n-r < 10 {
		r = n - 10
	}
	if r <= (n+1)/2 {
		return n
	}
	return r
}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := tailRank(len(s))
	return dist{
		N:       len(s),
		P50:     median(s),
		Tail:    s[r-1],
		TailPct: 100 * float64(r) / float64(len(s)),
	}
}

// median of xs (which need not be sorted); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
