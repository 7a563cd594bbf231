package layout

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/sim"
)

// referenceExtend is Extend as it stood with a full-capacity occupancy
// bitmap per array (SlotsPerArray bools each, on every migration), kept
// verbatim as the placement oracle for the high-water-mark-sized one.
func referenceExtend(l *Layout, removed, added []TupleID) *Layout {
	nl := &Layout{slots: make(map[TupleID]Slot, len(l.slots)+len(added)), spec: l.spec}
	for t, s := range l.slots {
		nl.slots[t] = s
	}
	for _, t := range removed {
		delete(nl.slots, t)
	}
	k := l.spec.NumArrays()
	occ := make([]int, k)
	used := make([][]bool, k)
	for i := range used {
		used[i] = make([]bool, l.spec.SlotsPerArray)
	}
	for _, s := range nl.slots {
		ai := int(s.Stage)*l.spec.ArraysPerStage + int(s.Array)
		occ[ai]++
		used[ai][s.Index] = true
	}
	adds := make([]TupleID, 0, len(added))
	for _, t := range added {
		if _, dup := nl.slots[t]; !dup {
			adds = append(adds, t)
		}
	}
	sort.Slice(adds, func(i, j int) bool { return adds[i] < adds[j] })
	scan := make([]int, k) // per-array lowest possibly-free index
	for _, t := range adds {
		best := -1
		for ai := 0; ai < k; ai++ {
			if occ[ai] < l.spec.SlotsPerArray && (best < 0 || occ[ai] < occ[best]) {
				best = ai
			}
		}
		if best < 0 {
			panic(fmt.Sprintf("layout: Extend overflowed switch capacity %d", l.spec.Capacity()))
		}
		idx := scan[best]
		for used[best][idx] {
			idx++
		}
		used[best][idx] = true
		scan[best] = idx + 1
		occ[best]++
		stage, array := l.spec.arrayAt(best)
		nl.slots[t] = Slot{Stage: stage, Array: array, Index: uint32(idx)}
	}
	return nl
}

// extendOutcome runs one Extend and reports its slots, or its panic.
func extendOutcome(f func(*Layout, []TupleID, []TupleID) *Layout, l *Layout, removed, added []TupleID) (slots map[TupleID]Slot, panicked any) {
	defer func() { panicked = recover() }()
	return f(l, removed, added).slots, nil
}

// TestExtendMatchesFullBitmap drives seeded chains of migrations — random
// removals (leaving holes below the high-water marks), additions that
// repeat resident tuples and each other, tiny and paper-sized geometries,
// additions up to and past capacity — through Extend and the full-bitmap
// reference, and requires identical placements (or identical overflow
// panics) at every step.
func TestExtendMatchesFullBitmap(t *testing.T) {
	specs := []Spec{
		{Stages: 3, ArraysPerStage: 1, SlotsPerArray: 4},
		{Stages: 4, ArraysPerStage: 2, SlotsPerArray: 9},
		{Stages: 12, ArraysPerStage: 4, SlotsPerArray: 17100},
	}
	for si, spec := range specs {
		for seed := uint64(1); seed <= 6; seed++ {
			rng := sim.NewRNG(seed*131 + uint64(si))
			cur := &Layout{slots: map[TupleID]Slot{}, spec: spec}
			next := TupleID(1)
			for step := 0; step < 25; step++ {
				var removed, added []TupleID
				for _, tid := range cur.Tuples() {
					if rng.Bool(30) {
						removed = append(removed, tid)
					}
				}
				nAdd := rng.Intn(spec.Capacity()/3 + 2)
				if spec.Capacity() > 1000 {
					nAdd = rng.Intn(120)
				}
				for i := 0; i < nAdd; i++ {
					switch {
					case cur.NumTuples() > 0 && rng.Bool(10):
						added = append(added, cur.Tuples()[rng.Intn(cur.NumTuples())]) // resident: a no-op
					case len(added) > 0 && rng.Bool(10):
						added = append(added, added[rng.Intn(len(added))]) // repeated addition
					default:
						added = append(added, next)
						next++
					}
				}
				got, gotPanic := extendOutcome((*Layout).Extend, cur, removed, added)
				want, wantPanic := extendOutcome(referenceExtend, cur, removed, added)
				if (gotPanic != nil) != (wantPanic != nil) || fmt.Sprint(gotPanic) != fmt.Sprint(wantPanic) {
					t.Fatalf("spec %d seed %d step %d: panic %v, reference %v", si, seed, step, gotPanic, wantPanic)
				}
				if gotPanic != nil {
					break // the chain cannot continue past an overflow
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("spec %d seed %d step %d: placements differ from the full-bitmap reference", si, seed, step)
				}
				cur = &Layout{slots: got, spec: spec}
			}
		}
	}
}

// TestExtendSizesBitmapToHighWaterMark pins the point of the sized
// bitmap: migrating a few hundred tuples on the paper's 820,800-slot
// pipeline allocates kilobytes, not a bool per slot.
func TestExtendSizesBitmapToHighWaterMark(t *testing.T) {
	spec := Spec{Stages: 12, ArraysPerStage: 4, SlotsPerArray: 17100}
	l := &Layout{slots: map[TupleID]Slot{}, spec: spec}
	var added []TupleID
	for tid := TupleID(1); tid <= 400; tid++ {
		added = append(added, tid)
	}
	l = l.Extend(nil, added)
	removed, added := []TupleID{3, 77, 200}, []TupleID{1000, 1001, 1002, 1003}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l.Extend(removed, added)
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 64<<10 {
		t.Fatalf("Extend allocated %d bytes for a 4-tuple migration, want ≤ 64 KB", got)
	}
}
