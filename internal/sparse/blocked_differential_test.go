package sparse

import (
	"math/rand"
	"testing"
)

// Blocked≡flat differential battery: the 2D-blocked SUMMA plans
// (blockplan.go) must produce output identical to the flat kernels — same
// pattern, same values compared with ==, so floating-point accumulation
// order must match bit for bit — across semirings × masks × accumulator
// hints × spec modes × thread counts × grid shapes. The blocked engine is
// shippable only because this battery holds: any divergence (a tile fold in
// the wrong bk order, a partition boundary that differs from the flat push
// kernel's, a mask admitted after the multiply) fails here first.
//
// Seeds are logged; rerun a failure with GRB_DIFF_SEED=<seed>.

// blockGrids are the grid shapes each sweep pins via SetBlockGrid: the auto
// default, tall, wide, and a degenerate single row of tiles.
var blockGrids = [][2]int{{0, 0}, {2, 3}, {5, 2}, {1, 4}}

// diffBlockedSpGEMM sweeps the matrix product for one semiring over grids ×
// masks × spec modes × accumulator hints × threads, and requires the forced
// blocked plan to agree exactly with the pinned-flat kernel.
func diffBlockedSpGEMM[T comparable](t *testing.T, rng *rand.Rand, semi Semi,
	mul, add func(T, T) T, mk func(*rand.Rand) T) {
	t.Helper()
	for trial := 0; trial < 4; trial++ {
		m := 1 + rng.Intn(40)
		k := 1 + rng.Intn(40)
		n := 1 + rng.Intn(40)
		a := sprayCSR(rng, m, k, 2*(m+k), mk)
		b := sprayCSR(rng, k, n, 2*(k+n), mk)
		maskM := sprayCSR(rng, m, n, (m*n)/3+1, func(r *rand.Rand) bool { return r.Intn(2) == 0 })
		for _, g := range blockGrids {
			pr, pc := SetBlockGrid(g[0], g[1])
			for _, mv := range maskVariants(maskM) {
				for _, spec := range []Spec{SpecGeneric, SpecMono} {
					for _, threads := range []int{1, 4} {
						for _, hint := range []Kernel{KernelAuto, KernelHash} {
							flat, err := SpGEMMSemiEx(semi, spec, a, b, mul, add, mv.mask,
								Exec{Threads: threads, Block: BlockFlat}, hint)
							if err != nil {
								t.Fatalf("mxm flat %s: %v", mv.name, err)
							}
							blk, err := SpGEMMSemiEx(semi, spec, a, b, mul, add, mv.mask,
								Exec{Threads: threads, Block: BlockForce}, hint)
							if err != nil {
								t.Fatalf("mxm blocked %s: %v", mv.name, err)
							}
							identicalCSR(t, semi.String()+"/mxm/"+mv.name, blk, flat)
						}
					}
				}
			}
			SetBlockGrid(pr, pc)
		}
	}
}

// diffBlockedMxV sweeps the pull (SpMV) and push (VxM) products for one
// semiring over grids × frontiers × masks × threads, forced blocked against
// pinned flat.
func diffBlockedMxV[T comparable](t *testing.T, rng *rand.Rand, semi Semi,
	mul, add func(T, T) T, mk func(*rand.Rand) T) {
	t.Helper()
	for trial := 0; trial < 4; trial++ {
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(40)
		a := sprayCSR(rng, rows, cols, 3*(rows+cols), mk)
		for _, g := range blockGrids {
			pr, pc := SetBlockGrid(g[0], g[1])

			// Pull: frontier over cols, mask over rows. Both a sparse and a
			// full frontier — the blocked plan must skip absent frontier
			// entries exactly like the flat gather does.
			for _, u := range []*Vec[T]{sprayVec(rng, cols, 3, mk), fullVec(rng, cols, mk)} {
				for _, mv := range vmaskVariants(rng, rows) {
					for _, threads := range []int{1, 4} {
						flat, err := SpMVSemiEx(semi, SpecGeneric, a, u, mul, add, mv.mask,
							Exec{Threads: threads, Block: BlockFlat}, KernelAuto)
						if err != nil {
							t.Fatalf("pull flat %s: %v", mv.name, err)
						}
						blk, err := SpMVSemiEx(semi, SpecGeneric, a, u, mul, add, mv.mask,
							Exec{Threads: threads, Block: BlockForce}, KernelAuto)
						if err != nil {
							t.Fatalf("pull blocked %s: %v", mv.name, err)
						}
						identicalVec(t, semi.String()+"/pull/"+mv.name, blk, flat)
					}
				}
			}

			// Push: frontier over rows, mask over cols. The blocked scatter
			// replicates the flat kernel's exact frontier partition
			// boundaries, so the per-position fold order matches.
			for _, u := range []*Vec[T]{sprayVec(rng, rows, 3, mk), fullVec(rng, rows, mk)} {
				for _, mv := range vmaskVariants(rng, cols) {
					for _, threads := range []int{1, 4} {
						flat, err := VxMSemiEx(semi, SpecGeneric, u, a, mul, add, mv.mask,
							Exec{Threads: threads, Block: BlockFlat})
						if err != nil {
							t.Fatalf("push flat %s: %v", mv.name, err)
						}
						blk, err := VxMSemiEx(semi, SpecGeneric, u, a, mul, add, mv.mask,
							Exec{Threads: threads, Block: BlockForce})
						if err != nil {
							t.Fatalf("push blocked %s: %v", mv.name, err)
						}
						identicalVec(t, semi.String()+"/push/"+mv.name, blk, flat)
					}
				}
			}
			SetBlockGrid(pr, pc)
		}
	}
}

// diffBlockedAll runs every kernel family for one semiring × element type
// and then asserts the blocked plans actually engaged — a silent fallback
// would make the whole battery vacuous.
func diffBlockedAll[T comparable](t *testing.T, rng *rand.Rand, semi Semi,
	mul, add func(T, T) T, mk func(*rand.Rand) T) {
	t.Helper()
	ResetKernelCounts()
	diffBlockedSpGEMM(t, rng, semi, mul, add, mk)
	diffBlockedMxV(t, rng, semi, mul, add, mk)
	if ops, tasks := BlockCounts(); ops == 0 || tasks == 0 {
		t.Fatalf("%s: blocked plans never engaged (ops=%d tasks=%d) — battery is vacuous", semi, ops, tasks)
	}
}

func TestBlockedDifferentialPlusTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	diffBlockedAll(t, rng, SemiPlusTimes,
		func(a, b float64) float64 { return a * b },
		func(a, b float64) float64 { return a + b },
		func(r *rand.Rand) float64 { return r.NormFloat64() })
	diffBlockedAll(t, rng, SemiPlusTimes,
		func(a, b int64) int64 { return a * b },
		func(a, b int64) int64 { return a + b },
		func(r *rand.Rand) int64 { return int64(r.Intn(19) - 9) })
}

func TestBlockedDifferentialMinPlus(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	diffBlockedAll(t, rng, SemiMinPlus,
		func(a, b int64) int64 { return a + b },
		monoMin[int64],
		func(r *rand.Rand) int64 { return int64(r.Intn(1000)) })
}

func TestBlockedDifferentialLorLand(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	diffBlockedAll(t, rng, SemiLorLand,
		func(a, b bool) bool { return a && b },
		func(a, b bool) bool { return a || b },
		func(r *rand.Rand) bool { return r.Intn(3) > 0 })
}

// TestBlockedRoutingGates pins the negative routing space: BlockFlat never
// builds a plan, BlockAuto declines single-threaded work, hash-pinned
// products, and sub-threshold operands — and when auto does engage, the
// result still matches flat exactly.
func TestBlockedRoutingGates(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	mul := func(a, b float64) float64 { return a * b }
	add := func(a, b float64) float64 { return a + b }
	small := sprayCSR(rng, 20, 20, 60, func(r *rand.Rand) float64 { return r.NormFloat64() })

	// BlockFlat: never engages, whatever the operands.
	ResetKernelCounts()
	if _, err := SpGEMMSemiEx(SemiGeneric, SpecGeneric, small, small, mul, add, Mask{},
		Exec{Threads: 4, Block: BlockFlat}, KernelAuto); err != nil {
		t.Fatal(err)
	}
	if ops, _ := BlockCounts(); ops != 0 {
		t.Fatalf("BlockFlat engaged the blocked engine (ops=%d)", ops)
	}

	// BlockAuto on sub-threshold operands: stays flat.
	ResetKernelCounts()
	if _, err := SpGEMMSemiEx(SemiGeneric, SpecGeneric, small, small, mul, add, Mask{},
		Exec{Threads: 4, Block: BlockAuto}, KernelAuto); err != nil {
		t.Fatal(err)
	}
	if ops, _ := BlockCounts(); ops != 0 {
		t.Fatalf("BlockAuto engaged below the nnz threshold (ops=%d)", ops)
	}

	// Lower the threshold so a modest operand qualifies, then check the
	// remaining auto gates: single-threaded and hash-pinned stay flat, and
	// the engaged plan still matches the flat product bit for bit.
	prevTh := SetBlockThreshold(64)
	defer SetBlockThreshold(prevTh)
	big := sprayCSR(rng, 48, 48, 400, func(r *rand.Rand) float64 { return r.NormFloat64() })

	ResetKernelCounts()
	if _, err := SpGEMMSemiEx(SemiGeneric, SpecGeneric, big, big, mul, add, Mask{},
		Exec{Threads: 1, Block: BlockAuto}, KernelAuto); err != nil {
		t.Fatal(err)
	}
	if ops, _ := BlockCounts(); ops != 0 {
		t.Fatalf("BlockAuto engaged single-threaded (ops=%d)", ops)
	}

	ResetKernelCounts()
	if _, err := SpGEMMSemiEx(SemiGeneric, SpecGeneric, big, big, mul, add, Mask{},
		Exec{Threads: 4, Block: BlockAuto}, KernelHash); err != nil {
		t.Fatal(err)
	}
	if ops, _ := BlockCounts(); ops != 0 {
		t.Fatalf("BlockAuto engaged under a hash pin (ops=%d)", ops)
	}

	ResetKernelCounts()
	flat, err := SpGEMMSemiEx(SemiGeneric, SpecGeneric, big, big, mul, add, Mask{},
		Exec{Threads: 4, Block: BlockFlat}, KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := SpGEMMSemiEx(SemiGeneric, SpecGeneric, big, big, mul, add, Mask{},
		Exec{Threads: 4, Block: BlockAuto}, KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	if ops, _ := BlockCounts(); ops == 0 {
		t.Fatal("BlockAuto never engaged above the threshold")
	}
	identicalCSR(t, "auto-vs-flat", auto, flat)

	// A masked product above the threshold: auto sends it to the mask-first
	// kernel, while a BlockForce pin, per operation or process-wide, still
	// runs the blocked plan.
	mask := Mask{M: patternOf(big), Structural: true}
	ResetKernelCounts()
	if _, err := SpGEMMSemiEx(SemiGeneric, SpecGeneric, big, big, mul, add, mask,
		Exec{Threads: 4, Block: BlockAuto}, KernelAuto); err != nil {
		t.Fatal(err)
	}
	if ops, _ := BlockCounts(); ops != 0 {
		t.Fatalf("BlockAuto blocked a masked product (ops=%d)", ops)
	}
	prevHint := SetBlockHint(BlockForce)
	defer SetBlockHint(prevHint)
	for _, e := range []Exec{{Threads: 4, Block: BlockForce}, {Threads: 4}} {
		ResetKernelCounts()
		if _, err := SpGEMMSemiEx(SemiGeneric, SpecGeneric, big, big, mul, add, mask, e, KernelAuto); err != nil {
			t.Fatal(err)
		}
		if ops, _ := BlockCounts(); ops == 0 {
			t.Fatalf("pinned BlockForce (exec %d) did not block a masked product", e.Block)
		}
	}
}

// TestBlockedViewTiles pins the view builder itself: tile concatenation
// reconstructs the flat matrix exactly, metadata nnz sums to the total, and
// the cached view is reused until the requested grid changes.
func TestBlockedViewTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	for trial := 0; trial < 8; trial++ {
		rows := 1 + rng.Intn(50)
		cols := 1 + rng.Intn(50)
		m := sprayCSR(rng, rows, cols, 2*(rows+cols), func(r *rand.Rand) int64 { return int64(r.Intn(100)) })
		gr := 1 + rng.Intn(6)
		gc := 1 + rng.Intn(6)
		bv, err := m.BlockedViewEx(Exec{}, gr, gc)
		if err != nil {
			t.Fatalf("BlockedViewEx: %v", err)
		}
		if bv.NNZ() != m.NNZ() {
			t.Fatalf("meta nnz %d != %d", bv.NNZ(), m.NNZ())
		}
		// Reassemble: for each global row, concatenating the tile rows in
		// block-column order must reproduce the flat row exactly.
		for i := 0; i < rows; i++ {
			var gotJ []int
			var gotV []int64
			bi := 0
			for bi < bv.GridR() && !(i >= bv.RowSplit[bi] && i < bv.RowSplit[bi+1]) {
				bi++
			}
			for bj := 0; bj < bv.GridC(); bj++ {
				tile := bv.Tile(bi, bj)
				tJ, tV := tile.Row(i - bv.RowSplit[bi])
				for k := range tJ {
					gotJ = append(gotJ, tJ[k]+bv.ColSplit[bj])
					gotV = append(gotV, tV[k])
				}
			}
			wantJ, wantV := m.Row(i)
			if len(gotJ) != len(wantJ) {
				t.Fatalf("row %d: nnz %d != %d", i, len(gotJ), len(wantJ))
			}
			for k := range wantJ {
				if gotJ[k] != wantJ[k] || gotV[k] != wantV[k] {
					t.Fatalf("row %d entry %d: (%d,%d) != (%d,%d)",
						i, k, gotJ[k], gotV[k], wantJ[k], wantV[k])
				}
			}
		}
		// Same grid: cache hit returns the same view. New grid: rebuilt.
		again, err := m.BlockedViewEx(Exec{}, gr, gc)
		if err != nil {
			t.Fatalf("BlockedViewEx cached: %v", err)
		}
		if again != bv {
			t.Fatal("same-grid view was rebuilt instead of served from cache")
		}
	}
}
