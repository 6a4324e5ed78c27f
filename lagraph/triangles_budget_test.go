package lagraph

import (
	"testing"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
)

// TestTriangleCountBudgetHashFallback: under a budget too tight for the
// masked kernel's dense accumulator, C⟨L⟩ = L +.pair L falls back to the
// mask-keyed hash accumulator and still counts every triangle.
func TestTriangleCountBudgetHashFallback(t *testing.T) {
	initLib(t)
	g := gen.ErdosRenyi(4096, 40000, 7).Symmetrize()
	want := refTriangles(g.N, g.Src, g.Dst)
	a := adjacency(t, g)
	// A dense accumulator costs 4096 × 16 B = 64 KiB per worker and the
	// stitch table 32 KiB, more than the limit together; a hash table keyed
	// by one row of L is well under 1 KiB.
	tight, err := grb.NewContext(grb.NonBlocking, nil, grb.WithThreads(2), grb.WithMemoryLimit(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.ViewInContext(tight)
	if err != nil {
		t.Fatal(err)
	}
	grb.ResetKernelCounts()
	got, err := TriangleCount(v)
	if err != nil {
		t.Fatalf("budgeted TriangleCount: %v", err)
	}
	if got != want {
		t.Fatalf("budgeted TriangleCount = %d, want %d", got, want)
	}
	degrades, _ := grb.HardeningCounts()
	dense, hash := grb.KernelCounts()
	if degrades == 0 || hash == 0 || dense != 0 {
		t.Fatalf("want every range degraded to hash: degrades=%d dense=%d hash=%d", degrades, dense, hash)
	}
	if used := tight.MemoryUsed(); used != 0 {
		t.Fatalf("budget leak: %d bytes still reserved", used)
	}
}
