package sparse

import (
	"math/rand"
	"testing"
)

// Spec oracle for the mask-first SpGEMM kernel: C⟨M⟩ = A·B must equal the
// spec's own definition, the unmasked product followed by MaskApplyM, bit
// for bit (values compared with ==, so float folds must match in order).
// The reference never touches the masked kernel, so a wrong admission, a
// product formed at an unadmitted position, or a reordered fold fails here.
//
// Seeds are logged; rerun a failure with GRB_DIFF_SEED=<seed>.

// dropMaskRows returns m with every row i ≡ 3 (mod 4) emptied, so the
// oracle always sees empty mask rows next to non-empty product rows.
func dropMaskRows(m *CSR[bool]) *CSR[bool] {
	out := NewCSR[bool](m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i%4 != 3 {
			ind, val := m.Row(i)
			out.Ind = append(out.Ind, ind...)
			out.Val = append(out.Val, val...)
		}
		out.Ptr[i+1] = len(out.Ind)
	}
	return out
}

// maskedOracleCoverage counts the mask shapes one input exercises, so the
// sweep can prove it was not vacuous.
type maskedOracleCoverage struct {
	emptyRows, explicitFalse, admittedNoProduct int
}

func (c *maskedOracleCoverage) note(mask *CSR[bool], full *CSR[bool]) {
	for i := 0; i < mask.Rows; i++ {
		mInd, mVal := mask.Row(i)
		if len(mInd) == 0 {
			c.emptyRows++
		}
		fInd, _ := full.Row(i)
		f := 0
		for k, j := range mInd {
			if !mVal[k] {
				c.explicitFalse++
				continue
			}
			for f < len(fInd) && fInd[f] < j {
				f++
			}
			if f == len(fInd) || fInd[f] != j {
				c.admittedNoProduct++
			}
		}
	}
}

// oracleMaskedSpGEMM sweeps one semiring over random shapes, alternating
// moderate outputs with wide, hypersparse ones where auto picks the hash
// accumulator, × every mask variant plus a complemented empty mask ×
// accumulator pin × thread count × blocked pin (BlockForce routes the masked
// variants through the blocked plan's emit filter instead).
func oracleMaskedSpGEMM[T comparable](t *testing.T, rng *rand.Rand, semi Semi,
	mul, add func(T, T) T, mk func(*rand.Rand) T) {
	t.Helper()
	var cov maskedOracleCoverage
	for trial := 0; trial < 8; trial++ {
		m := 1 + rng.Intn(40)
		k := 1 + rng.Intn(40)
		n := 1 + rng.Intn(40)
		nnz := 2 * (m + k)
		maskNNZ := (m*n)/3 + 1
		if trial%2 == 1 {
			n = 500 + rng.Intn(3000)
			nnz = m + k
			maskNNZ = 4 * m
		}
		a := sprayCSR(rng, m, k, nnz, mk)
		b := sprayCSR(rng, k, n, nnz, mk)
		maskM := dropMaskRows(sprayCSR(rng, m, n, maskNNZ, func(r *rand.Rand) bool { return r.Intn(2) == 0 }))
		variants := append(maskVariants(maskM), struct {
			name string
			mask Mask
		}{"empty-complement", Mask{Complement: true}})
		for _, threads := range []int{1, 2, 4} {
			for _, hint := range []Kernel{KernelAuto, KernelDense, KernelHash} {
				full, err := SpGEMMSemiEx(semi, SpecAuto, a, b, mul, add, Mask{}, Exec{Threads: threads}, hint)
				if err != nil {
					t.Fatalf("unmasked product: %v", err)
				}
				if threads == 1 && hint == KernelAuto {
					cov.note(maskM, patternOf(full))
				}
				for _, block := range []BlockHint{BlockAuto, BlockForce} {
					e := Exec{Threads: threads, Block: block}
					for _, mv := range variants {
						got, err := SpGEMMSemiEx(semi, SpecAuto, a, b, mul, add, mv.mask, e, hint)
						if err != nil {
							t.Fatalf("masked product %s: %v", mv.name, err)
						}
						if !got.Valid() {
							t.Fatalf("%s threads=%d hint=%d block=%d: invalid output", mv.name, threads, hint, block)
						}
						want := MaskApplyM(NewCSR[T](m, n), full, mv.mask, false, threads)
						identicalCSR(t, semi.String()+"/"+mv.name, got, want)
					}
				}
			}
		}
	}
	if cov.emptyRows == 0 || cov.explicitFalse == 0 || cov.admittedNoProduct == 0 {
		t.Fatalf("%s: mask shapes not exercised: %+v", semi, cov)
	}
}

// patternOf returns the boolean pattern of m (every stored entry true).
func patternOf[T any](m *CSR[T]) *CSR[bool] {
	out := &CSR[bool]{Rows: m.Rows, Cols: m.Cols, Ptr: m.Ptr, Ind: m.Ind, Val: make([]bool, len(m.Ind))}
	for k := range out.Val {
		out.Val[k] = true
	}
	return out
}

func TestMaskedSpGEMMSpecOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	oracleMaskedSpGEMM(t, rng, SemiPlusTimes,
		func(a, b int64) int64 { return a * b },
		func(a, b int64) int64 { return a + b },
		func(r *rand.Rand) int64 { return int64(r.Intn(19) - 9) })
	oracleMaskedSpGEMM(t, rng, SemiPlusTimes,
		func(a, b float64) float64 { return a * b },
		func(a, b float64) float64 { return a + b },
		func(r *rand.Rand) float64 { return r.NormFloat64() })
	oracleMaskedSpGEMM(t, rng, SemiLorLand,
		func(a, b bool) bool { return a && b },
		func(a, b bool) bool { return a || b },
		func(r *rand.Rand) bool { return r.Intn(3) > 0 })
}

// TestMaskedSpGEMMRouting pins the mask route: a masked product skips the
// mono tier, an accumulator pin selects the masked kernel's dense or
// hash-keyed form, and a complemented empty mask yields an empty product.
func TestMaskedSpGEMMRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(diffSeed(t)))
	mk := func(r *rand.Rand) float64 { return r.NormFloat64() }
	a := sprayCSR(rng, 30, 30, 120, mk)
	maskM := sprayCSR(rng, 30, 30, 300, func(r *rand.Rand) bool { return true })
	mask := Mask{M: maskM, Structural: true}
	mul := func(x, y float64) float64 { return x * y }
	add := func(x, y float64) float64 { return x + y }
	for _, tc := range []struct {
		hint                Kernel
		wantDense, wantHash bool
	}{{KernelDense, true, false}, {KernelHash, false, true}} {
		ResetKernelCounts()
		if _, err := SpGEMMSemiEx(SemiPlusTimes, SpecMono, a, a, mul, add, mask, Exec{Threads: 2}, tc.hint); err != nil {
			t.Fatal(err)
		}
		dense, hash := KernelCounts()
		if (dense > 0) != tc.wantDense || (hash > 0) != tc.wantHash {
			t.Fatalf("hint %d: dense=%d hash=%d ranges", tc.hint, dense, hash)
		}
		if mono, closure := MonoCounts(); mono != 0 || closure != 0 {
			t.Fatalf("hint %d: masked product reached the mono/closure tier (mono=%d closure=%d)", tc.hint, mono, closure)
		}
	}
	got, err := SpGEMMSemiEx(SemiPlusTimes, SpecAuto, a, a, mul, add, Mask{Complement: true}, Exec{Threads: 2}, KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 || got.Rows != 30 || got.Cols != 30 {
		t.Fatalf("complemented empty mask: %dx%d nnz=%d, want empty 30x30", got.Rows, got.Cols, got.NNZ())
	}
}
