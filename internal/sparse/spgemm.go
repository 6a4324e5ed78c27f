package sparse

import (
	"sort"

	"github.com/grblas/grb/internal/parallel"
)

// SpGEMM computes T = A ·(⊕,⊗) B over an arbitrary semiring using
// Gustavson's row-wise algorithm with adaptive kernel selection
// (SpGEMMKernel with KernelAuto).
func SpGEMM[A, B, C any](a *CSR[A], b *CSR[B], mul func(A, B) C, add func(C, C) C, mask Mask, threads int) *CSR[C] {
	return SpGEMMKernel(a, b, mul, add, mask, threads, KernelAuto)
}

// SpGEMMKernel computes T = A ·(⊕,⊗) B over an arbitrary semiring using
// Gustavson's row-wise algorithm with a per-worker sparse accumulator (SPA).
//
// A cheap symbolic pass (SpGEMMFlops) first computes per-row flop upper
// bounds. Rows of A are then partitioned by *flop* balance — not nnz(A)
// balance — across up to `threads` workers, so a single skewed row no longer
// serializes a worker. Each row range picks its accumulator independently:
//
//   - dense SPA: a width-B.Cols value buffer reused across rows via
//     generation stamps. O(B.Cols) scratch per worker, O(1) per product.
//   - hash SPA: an open-addressing table presized from the row's flop bound.
//     O(maxRowFlops) scratch per worker — the hypersparse-regime kernel, for
//     when B.Cols dwarfs the work the whole range actually does.
//
// With hint KernelAuto a range is routed by chooseHash (the range's total
// flop estimate vs. B.Cols with the package threshold); KernelDense/
// KernelHash pin the choice, which is what the differential tests and
// benchmarks use. The hash table is presized from the heaviest row's bound,
// so it never rehashes mid-row.
//
// Both accumulators visit products in identical (k, t) order and sort each
// row's pattern before emitting, so their outputs are identical down to
// floating-point rounding — the property the differential harness asserts.
//
// If mask.M is non-nil (or mask.Complement is set), this kernel filters at
// emit time: it forms and sorts every product and stores only the positions
// the mask admits. That post-filter is the pinned closure reference the
// differential tests hold the mask-first kernel to; routed products never
// take it, because SpGEMMSemiEx sends masked products to spgemmMasked, which
// forms products only at admitted positions (see MaskFirst).
//
// SpGEMMKernel is the unhardened compatibility form: it delegates to
// SpGEMMKernelEx with a zero execution environment (no budget, no
// cancellation) and re-panics on the errors only injected faults could then
// produce, so pre-hardening callers and tests see the old signature.
func SpGEMMKernel[A, B, C any](a *CSR[A], b *CSR[B], mul func(A, B) C, add func(C, C) C, mask Mask, threads int, hint Kernel) *CSR[C] {
	out, err := SpGEMMKernelEx(a, b, mul, add, mask, Exec{Threads: threads}, hint)
	if err != nil {
		panic(err)
	}
	return out
}

// SpGEMMKernelEx is the hardened SpGEMM: identical algorithm and output, with
// the execution environment threaded through every allocation and range
// boundary. Degradation order under memory pressure: halve workers (fewer
// concurrently-live accumulators), then prefer the hash SPA over the dense
// one per range when the dense workspace no longer fits, and only when even
// the cheapest route cannot be charged does it return ErrBudget. A panic
// anywhere inside — worker goroutines included — comes back as an error, not
// a crash.
func SpGEMMKernelEx[A, B, C any](a *CSR[A], b *CSR[B], mul func(A, B) C, add func(C, C) C, mask Mask, e Exec, hint Kernel) (out *CSR[C], err error) {
	defer recoverExec(&err)
	threads := e.threads()
	fptr := SpGEMMFlops(a, b, threads)
	slot := slotBytes[C]()
	denseBytes := int64(b.Cols) * slot
	if e.Tx != nil && threads > 1 {
		// Per-worker scratch lower bound: whichever accumulator is cheaper for
		// the heaviest row (the hash table is sized from it).
		maxRow := 0
		for i := 0; i < a.Rows; i++ {
			if f := fptr[i+1] - fptr[i]; f > maxRow {
				maxRow = f
			}
		}
		per := denseBytes
		if hb := int64(hashCapacity(maxRow)) * slot; hb < per {
			per = hb
		}
		threads = degradeThreads(e, threads, per)
	}
	out = NewCSR[C](a.Rows, b.Cols)
	parts := parallel.BalancedRanges(a.Rows, threads, fptr)
	nparts := len(parts) - 1
	notePartSpan(parts, fptr, threads)
	pInd := make([][]int, nparts)
	pVal := make([][]C, nparts)
	// The stitch row-length table scales with the output rows, so it is
	// metered like worker scratch.
	if cerr := e.charge(siteSpGEMMDense, int64(a.Rows)*8); cerr != nil {
		return nil, cerr
	}
	rowLen := make([]int, a.Rows)
	masked := mask.M != nil || mask.Complement
	parallel.Run(parts, threads, func(part, lo, hi int) {
		e.checkpoint()
		rangeFlops := fptr[hi] - fptr[lo]
		maxFlops := 0
		for i := lo; i < hi; i++ {
			if f := fptr[i+1] - fptr[i]; f > maxFlops {
				maxFlops = f
			}
		}
		var ind []int
		var val []C
		pattern := make([]int, 0, 256)
		// admit reports whether the mask passes position j of row i, using a
		// per-row cursor; pattern is sorted, so the cursor only advances.
		var mInd []int
		var mVal []bool
		mk := 0
		admit := func(j int) bool {
			mt := maskTest(mInd, mVal, mask.Structural, j, &mk)
			if mask.Complement {
				mt = !mt
			}
			return mt
		}
		useHash := chooseHash(hint, rangeFlops, b.Cols)
		hashBytes := int64(hashCapacity(maxFlops)) * slot
		if !useHash && e.Tx != nil && !e.Tx.Fits(denseBytes) && hashBytes < denseBytes {
			// Budget degradation: the dense workspace no longer fits but the
			// (smaller) hash table might — route this range to the hash SPA.
			useHash = true
			budgetDegrades.Add(1)
		}
		if useHash {
			hashRanges.Add(1)
			e.mustCharge(siteSpGEMMHash, hashBytes)
			var h hashAccum[C]
			h.ensure(maxFlops)
			for i := lo; i < hi; i++ {
				pattern = pattern[:0]
				aInd, aVal := a.Row(i)
				for k := range aInd {
					bInd, bVal := b.Row(aInd[k])
					av := aVal[k]
					for t := range bInd {
						j := bInd[t]
						p := mul(av, bVal[t])
						s := h.slot(j)
						if h.keys[s] == -1 {
							h.keys[s] = j
							h.vals[s] = p
							h.slots = append(h.slots, s)
							pattern = append(pattern, j)
						} else {
							h.vals[s] = add(h.vals[s], p)
						}
					}
				}
				sort.Ints(pattern)
				start := len(ind)
				if masked {
					if mask.M != nil {
						mInd, mVal = mask.M.Row(i)
					}
					mk = 0
					for _, j := range pattern {
						if admit(j) {
							ind = append(ind, j)
							val = append(val, h.vals[h.slot(j)])
						}
					}
				} else {
					for _, j := range pattern {
						ind = append(ind, j)
						val = append(val, h.vals[h.slot(j)])
					}
				}
				rowLen[i] = len(ind) - start
				h.reset()
			}
		} else {
			denseRanges.Add(1)
			e.mustCharge(siteSpGEMMDense, denseBytes)
			spa := make([]C, b.Cols)
			stamp := make([]int, b.Cols) // generation marks; row i+1 is generation i+1
			scratchBytes.Add(denseBytes)
			for i := lo; i < hi; i++ {
				gen := i + 1
				pattern = pattern[:0]
				aInd, aVal := a.Row(i)
				for k := range aInd {
					bInd, bVal := b.Row(aInd[k])
					av := aVal[k]
					for t := range bInd {
						j := bInd[t]
						p := mul(av, bVal[t])
						if stamp[j] != gen {
							stamp[j] = gen
							spa[j] = p
							pattern = append(pattern, j)
						} else {
							spa[j] = add(spa[j], p)
						}
					}
				}
				sort.Ints(pattern)
				start := len(ind)
				if masked {
					if mask.M != nil {
						mInd, mVal = mask.M.Row(i)
					}
					mk = 0
					for _, j := range pattern {
						if admit(j) {
							ind = append(ind, j)
							val = append(val, spa[j])
						}
					}
				} else {
					for _, j := range pattern {
						ind = append(ind, j)
						val = append(val, spa[j])
					}
				}
				rowLen[i] = len(ind) - start
			}
		}
		pInd[part] = ind
		pVal[part] = val
	})
	installStitched(out, parts, pInd, pVal, rowLen)
	return out, nil
}

// CheckedMul returns x*y and whether the product is representable (no signed
// overflow). Shapes and nnz counts are nonnegative, so a negative product
// always means wraparound.
func CheckedMul(x, y int) (int, bool) {
	if x == 0 || y == 0 {
		return 0, true
	}
	p := x * y
	if p/y != x || p < 0 {
		return 0, false
	}
	return p, true
}

// Kron computes the Kronecker product T = A ⊗kron B with the given multiply
// operator: T is (A.Rows*B.Rows) × (A.Cols*B.Cols) and
// T(i*Br+k, j*Bc+l) = mul(A(i,j), B(k,l)) for every pair of stored entries.
// If the output shape or entry count overflows the int range, it returns
// ErrTooLarge before allocating anything (the grb layer maps this onto
// GrB_OUT_OF_MEMORY). A panic inside the fan-out (a faulty multiply
// operator) parks as an error instead of crossing the API boundary.
func Kron[A, B, C any](a *CSR[A], b *CSR[B], mul func(A, B) C, threads int) (out *CSR[C], err error) {
	defer recoverExec(&err)
	rows, okR := CheckedMul(a.Rows, b.Rows)
	cols, okC := CheckedMul(a.Cols, b.Cols)
	nnz, okN := CheckedMul(a.NNZ(), b.NNZ())
	if !okR || !okC || !okN {
		return nil, ErrTooLarge
	}
	out = NewCSR[C](rows, cols)
	if nnz == 0 {
		return out, nil
	}
	out.Ind = make([]int, nnz)
	out.Val = make([]C, nnz)
	// Row (ia*b.Rows + ib) holds nnz(A row ia) * nnz(B row ib) entries.
	for i := 0; i < rows; i++ {
		ia, ib := i/b.Rows, i%b.Rows
		out.Ptr[i+1] = out.Ptr[i] + (a.Ptr[ia+1]-a.Ptr[ia])*(b.Ptr[ib+1]-b.Ptr[ib])
	}
	parallel.For(rows, threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ia, ib := i/b.Rows, i%b.Rows
			aInd, aVal := a.Row(ia)
			bInd, bVal := b.Row(ib)
			p := out.Ptr[i]
			for k := range aInd {
				base := aInd[k] * b.Cols
				for t := range bInd {
					out.Ind[p] = base + bInd[t]
					out.Val[p] = mul(aVal[k], bVal[t])
					p++
				}
			}
		}
	})
	return out, nil
}
