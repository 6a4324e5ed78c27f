package sparse

import (
	"sort"

	"github.com/grblas/grb/internal/parallel"
)

// MaskFirst reports whether SpGEMMSemiEx sends a product with this mask and
// execution environment to the masked kernel: every masked product goes
// there unless the blocked engine is pinned (BlockForce), because a pin
// wins. A complemented empty mask admits nothing, so it takes the masked
// kernel (which returns the empty product) even under a pin: the blocked
// plan's emit filter would read it as admitting everything. The grb layer
// asks the same question to label the route exactly.
func MaskFirst(mask Mask, e Exec) bool {
	if mask.M == nil {
		return mask.Complement
	}
	return e.blockMode() != BlockForce
}

// spgemmMasked computes T = A ·(⊕,⊗) B at the positions the mask admits
// and nowhere else: the mask-first Gustavson kernel behind every routed
// C⟨M⟩ product (triangle counting's C⟨L⟩ = L +.pair L forms tens of
// millions of wedges for a few hundred thousand masked outputs).
//
// Each worker stamps the mask positions of row i into its accumulator before
// scattering A(i,:)·B, using two generations per row in the one stamp array:
// mark (2i+1) for a stamped position without a product yet and live (2i+2)
// for one holding a value. The hash accumulator encodes the same two states
// in its keys (markKey(j) and j). With a plain mask only stamped positions
// take products and the row is emitted by walking M(i,:), which is already
// sorted, so there is no pattern and no sort. With a complemented mask the
// stamped positions are the ones skipped, and every other product is kept
// with the usual pattern-and-sort emit.
//
// Bit-identity: at every emitted position the products arrive in the same
// (k, t) order, first-assign-then-add, as in SpGEMMKernelEx, so the output
// equals the unmasked product followed by MaskApplyM, down to float
// rounding. Routing, budget degradation, fault sites, range checkpoints and
// panic recovery follow SpGEMMKernelEx.
func spgemmMasked[A, B, C any](a *CSR[A], b *CSR[B], mul func(A, B) C, add func(C, C) C,
	mask Mask, e Exec, hint Kernel) (out *CSR[C], err error) {
	defer recoverExec(&err)
	out = NewCSR[C](a.Rows, b.Cols)
	if mask.M == nil {
		// A complemented empty mask admits nothing.
		return out, nil
	}
	threads := e.threads()
	fptr := SpGEMMFlops(a, b, threads)
	slot := slotBytes[C]()
	denseBytes := int64(b.Cols) * slot
	comp := mask.Complement
	// rowKeys bounds the hash keys row i needs: its mask row, plus every
	// product when the mask is complemented.
	rowKeys := func(i int) int {
		n := mask.M.Ptr[i+1] - mask.M.Ptr[i]
		if comp {
			n += fptr[i+1] - fptr[i]
		}
		return n
	}
	if e.Tx != nil && threads > 1 {
		maxKeys := 0
		for i := 0; i < a.Rows; i++ {
			maxKeys = max(maxKeys, rowKeys(i))
		}
		threads = degradeThreads(e, threads, min(denseBytes, int64(hashCapacity(maxKeys))*slot))
	}
	parts := parallel.BalancedRanges(a.Rows, threads, fptr)
	nparts := len(parts) - 1
	notePartSpan(parts, fptr, threads)
	pInd := make([][]int, nparts)
	pVal := make([][]C, nparts)
	if cerr := e.charge(siteSpGEMMDense, int64(a.Rows)*8); cerr != nil {
		return nil, cerr
	}
	rowLen := make([]int, a.Rows)
	parallel.Run(parts, threads, func(part, lo, hi int) {
		e.checkpoint()
		maxKeys := 0
		for i := lo; i < hi; i++ {
			maxKeys = max(maxKeys, rowKeys(i))
		}
		useHash := chooseHash(hint, fptr[hi]-fptr[lo], b.Cols)
		hashBytes := int64(hashCapacity(maxKeys)) * slot
		if !useHash && e.Tx != nil && !e.Tx.Fits(denseBytes) && hashBytes < denseBytes {
			useHash = true
			budgetDegrades.Add(1)
		}
		var ind []int
		var val []C
		pattern := make([]int, 0, 256)
		if useHash {
			hashRanges.Add(1)
			e.mustCharge(siteSpGEMMHash, hashBytes)
			var h hashAccum[C]
			h.ensure(maxKeys)
			for i := lo; i < hi; i++ {
				mInd, mVal := mask.M.Row(i)
				for k, j := range mInd {
					if mask.Structural || mVal[k] {
						s := h.probe(j)
						h.keys[s] = markKey(j)
						h.slots = append(h.slots, s)
					}
				}
				if len(h.slots) == 0 && !comp {
					continue
				}
				pattern = pattern[:0]
				aInd, aVal := a.Row(i)
				for k := range aInd {
					bInd, bVal := b.Row(aInd[k])
					av := aVal[k]
					for t, j := range bInd {
						s := h.probe(j)
						switch h.keys[s] {
						case j:
							h.vals[s] = add(h.vals[s], mul(av, bVal[t]))
						case -1:
							if comp {
								h.keys[s] = j
								h.vals[s] = mul(av, bVal[t])
								h.slots = append(h.slots, s)
								pattern = append(pattern, j)
							}
						default: // markKey(j)
							if !comp {
								h.keys[s] = j
								h.vals[s] = mul(av, bVal[t])
							}
						}
					}
				}
				emit := mInd
				if comp {
					sort.Ints(pattern)
					emit = pattern
				}
				start := len(ind)
				for _, j := range emit {
					if s := h.probe(j); h.keys[s] == j {
						ind = append(ind, j)
						val = append(val, h.vals[s])
					}
				}
				rowLen[i] = len(ind) - start
				h.reset()
			}
		} else {
			denseRanges.Add(1)
			e.mustCharge(siteSpGEMMDense, denseBytes)
			spa := make([]C, b.Cols)
			stamp := make([]int, b.Cols)
			scratchBytes.Add(denseBytes)
			for i := lo; i < hi; i++ {
				mark, live := 2*i+1, 2*i+2
				mInd, mVal := mask.M.Row(i)
				stamped := false
				for k, j := range mInd {
					if mask.Structural || mVal[k] {
						stamp[j] = mark
						stamped = true
					}
				}
				if !stamped && !comp {
					continue
				}
				pattern = pattern[:0]
				aInd, aVal := a.Row(i)
				for k := range aInd {
					bInd, bVal := b.Row(aInd[k])
					av := aVal[k]
					for t, j := range bInd {
						switch stamp[j] {
						case live:
							spa[j] = add(spa[j], mul(av, bVal[t]))
						case mark:
							if !comp {
								stamp[j] = live
								spa[j] = mul(av, bVal[t])
							}
						default:
							if comp {
								stamp[j] = live
								spa[j] = mul(av, bVal[t])
								pattern = append(pattern, j)
							}
						}
					}
				}
				emit := mInd
				if comp {
					sort.Ints(pattern)
					emit = pattern
				}
				start := len(ind)
				for _, j := range emit {
					if stamp[j] == live {
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

// markKey is the hash-accumulator key of a stamped position j that holds no
// product yet; it is below -1, so it never collides with a column or with
// the empty key.
func markKey(j int) int { return -j - 2 }

// probe returns the slot holding j, live or stamped (markKey(j)), or the
// empty slot where j belongs.
func (h *hashAccum[C]) probe(j int) int {
	s := int((uint64(j)*0x9E3779B97F4A7C15)>>33) & h.mask
	for k := h.keys[s]; k != -1 && k != j && k != markKey(j); k = h.keys[s] {
		s = (s + 1) & h.mask
	}
	return s
}
