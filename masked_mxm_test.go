package grb

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/grblas/grb/internal/faults"
)

// Hardening and observability of the mask-first MxM route: C⟨M⟩ products
// run the masked SpGEMM kernel, which must park injected faults like every
// other kernel and must be named exactly in the trace.

// maskedMxMInputs returns the 16×16 chaos operand and a boolean mask over
// half of its rows, both materialized.
func maskedMxMInputs(t *testing.T) (*Matrix[float64], *Matrix[bool]) {
	t.Helper()
	a, _ := chaosInputs(t)
	var is, js []Index
	var xs []bool
	for i := 0; i < 16; i += 2 {
		for j := 0; j < 16; j += 3 {
			is, js, xs = append(is, Index(i)), append(js, Index(j)), append(xs, true)
		}
	}
	m := mustMatrix(t, 16, 16, is, js, xs)
	ck(m.Wait(Materialize))
	return a, m
}

// TestMaskedMxMFaultsPark: a fault armed at a site the masked kernel passes
// (row-table and dense-SPA charges, the hash-table charge, the per-range
// checkpoint) parks GrB_OUT_OF_MEMORY or GrB_PANIC instead of crashing, and
// the same product succeeds once the fault is disarmed.
func TestMaskedMxMFaultsPark(t *testing.T) {
	setMode(t, NonBlocking)
	dense := &Descriptor{Structure: true, AxB: AxBDenseSPA}
	hash := &Descriptor{Structure: true, AxB: AxBHashSPA}
	points := []struct {
		site string
		hit  int64
		desc *Descriptor
	}{
		{"sparse.spgemm.spa", 1, dense}, // stitch row-length table
		{"sparse.spgemm.spa", 2, dense}, // per-range dense SPA
		{"sparse.spgemm.hash", 1, hash},
		{"sparse.kernel.range", 1, hash},
	}
	for _, p := range points {
		for _, tc := range []struct {
			action faults.Action
			want   Info
		}{{faults.AllocFail, OutOfMemory}, {faults.Panic, Panic}} {
			a, mask := maskedMxMInputs(t)
			c := ck1(NewMatrix[float64](16, 16))
			faults.Enable(faults.Rule{Site: p.site, Action: tc.action, Hit: p.hit})
			ck(MxM(c, mask, nil, PlusTimes[float64](), a, a, p.desc))
			err := c.Wait(Materialize)
			faults.Disable()
			if Code(err) != tc.want {
				t.Fatalf("%s@%d %v: err = %v, want %v", p.site, p.hit, tc.action, err, tc.want)
			}
			if c.ErrorString() == "" {
				t.Fatalf("%s@%d %v: parked error has empty ErrorString", p.site, p.hit, tc.action)
			}
			d := ck1(NewMatrix[float64](16, 16))
			ck(MxM(d, mask, nil, PlusTimes[float64](), a, a, p.desc))
			if err := d.Wait(Materialize); err != nil {
				t.Fatalf("%s@%d %v: masked MxM after disarm: %v", p.site, p.hit, tc.action, err)
			}
		}
	}
}

// TestMaskedMxMRouteLabel: the MxM kernel event says "masked" exactly when
// the mask route ran, not for an unmasked product, and not for a masked
// product whose descriptor pins the blocked engine (pins win).
func TestMaskedMxMRouteLabel(t *testing.T) {
	setMode(t, NonBlocking)
	a, mask := maskedMxMInputs(t)
	var buf bytes.Buffer
	ck(TraceTo(&buf))
	for _, run := range []struct {
		mask *Matrix[bool]
		desc *Descriptor
	}{
		{mask, DescS},
		{nil, nil},
		{mask, &Descriptor{Structure: true, Block: BlockOn}},
	} {
		c := ck1(NewMatrix[float64](16, 16))
		ck(MxM(c, run.mask, nil, PlusTimes[float64](), a, a, run.desc))
		ck(c.Wait(Materialize))
	}
	ck(StopTrace())

	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var routes []string
	for _, ev := range tr.TraceEvents {
		if ev.Cat == "kernel" && ev.Name == "MxM" {
			route, _ := ev.Args["route"].(string)
			routes = append(routes, route)
		}
	}
	if len(routes) != 3 {
		t.Fatalf("MxM kernel events = %q, want 3", routes)
	}
	if routes[0] != "masked" {
		t.Errorf("masked MxM route = %q, want \"masked\"", routes[0])
	}
	if routes[1] == "masked" {
		t.Errorf("unmasked MxM route = %q, want a non-masked route", routes[1])
	}
	if !strings.HasSuffix(routes[2], "+blocked") {
		t.Errorf("block-pinned masked MxM route = %q, want a +blocked route", routes[2])
	}
}

// TestMaskedMxMComplementedEmptyMask: a nil mask under a Complement
// descriptor admits nothing, on every route. C starts empty, so the result
// must stay empty whether the product runs on the mask route, on a pinned
// hash accumulator, under a BlockOn descriptor or under a process-wide
// BlockForce hint; and a non-empty C keeps its entries unchanged.
func TestMaskedMxMComplementedEmptyMask(t *testing.T) {
	setMode(t, NonBlocking)
	a, _ := maskedMxMInputs(t)
	for _, tc := range []struct {
		name string
		desc *Descriptor
		hint BlockHint
	}{
		{"auto", &Descriptor{Complement: true}, BlockAuto},
		{"hash", &Descriptor{Complement: true, AxB: AxBHashSPA}, BlockAuto},
		{"desc-blockon", &Descriptor{Complement: true, Block: BlockOn}, BlockAuto},
		{"hint-force", &Descriptor{Complement: true}, BlockForce},
	} {
		prev := SetBlockHint(tc.hint)
		c := ck1(NewMatrix[float64](16, 16))
		ck(MxM(c, nil, nil, PlusTimes[float64](), a, a, tc.desc))
		err := c.Wait(Materialize)
		kept := ck1(NewMatrix[float64](16, 16))
		ck(kept.SetElement(7, 3, 5))
		ck(MxM(kept, nil, nil, PlusTimes[float64](), a, a, tc.desc))
		kerr := kept.Wait(Materialize)
		SetBlockHint(prev)
		ck(err)
		ck(kerr)
		if n := ck1(c.Nvals()); n != 0 {
			t.Errorf("%s: empty C gained %d entries through a complemented empty mask", tc.name, n)
		}
		if n := ck1(kept.Nvals()); n != 1 {
			t.Errorf("%s: C with one entry has %d entries after a complemented empty mask", tc.name, n)
		}
		if v, ok, err := kept.ExtractElement(3, 5); err != nil || !ok || v != 7 {
			t.Errorf("%s: C(3,5) = %v, %v, %v; want 7", tc.name, v, ok, err)
		}
	}
}
