package core

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestTornLogRedo cuts every node's log image of a durable TPC-C run at
// seeded byte offsets — at 0, inside a length prefix, inside a payload and
// on an exact frame boundary — the way a crash tears a log mid-write. Each
// cut must decode to exactly the whole frames before it, reporting the
// torn tail; and redoCold, node recovery's replay, must rebuild every
// partition from the surviving cold frames as a serial replay of those
// frames in LSN order does.
func TestTornLogRedo(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine, cfg.Durable, cfg.Nodes, cfg.Seed = "p4db", true, 4, 42
	cfg.SampleTxns = 20000
	gen, err := workload.ByName("tpcc", cfg.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(cfg, gen)
	bases := make([]*store.Store, cfg.Nodes) // each partition as loaded
	for i := range bases {
		bases[i] = c.Node(i).Store().Clone()
	}
	c.Run(100*sim.Microsecond, 400*sim.Microsecond)

	// The uncut images, where each of their frames ends, and what they
	// decode to: switch frames first, then cold frames.
	images := make([][]byte, cfg.Nodes)
	ends := make([][]int, cfg.Nodes)
	whole := make([]*wal.Log, cfg.Nodes)
	for i := range images {
		images[i] = c.Node(i).Log().Marshal()
		for at := 0; at < len(images[i]); {
			at += 4 + int(binary.BigEndian.Uint32(images[i][at:]))
			ends[i] = append(ends[i], at)
		}
		if whole[i], _, err = wal.UnmarshalLog(i, images[i]); err != nil {
			t.Fatal(err)
		}
	}

	rng := sim.NewRNG(7)
	// frameStart picks a frame of node i and returns where it starts and
	// its length.
	frameStart := func(i int) (int, int) {
		f := rng.Intn(len(ends[i]))
		start := 0
		if f > 0 {
			start = ends[i][f-1]
		}
		return start, ends[i][f] - start
	}
	cuts := []struct {
		name string
		torn bool
		at   func(i int) int
	}{
		{"zero", false, func(int) int { return 0 }},
		{"mid-length-prefix", true, func(i int) int {
			start, _ := frameStart(i)
			return start + 1 + rng.Intn(3)
		}},
		{"mid-payload", true, func(i int) int {
			start, n := frameStart(i)
			return start + 4 + rng.Intn(n-4)
		}},
		{"frame-boundary", false, func(i int) int { return ends[i][rng.Intn(len(ends[i]))] }},
	}
	dropped, kept := 0, 0 // cold records lost to and surviving a cut
	for _, cut := range cuts {
		t.Run(cut.name, func(t *testing.T) {
			logs := make([]*wal.Log, cfg.Nodes)
			var survivors [][]*wal.ColdRecord
			for i := range logs {
				at := cut.at(i)
				l, torn, err := wal.UnmarshalLog(i, images[i][:at])
				if err != nil || torn != cut.torn {
					t.Fatalf("node %d cut at %d of %d: torn=%v err=%v, want torn=%v", i, at, len(images[i]), torn, err, cut.torn)
				}
				logs[i] = l
				frames := sort.SearchInts(ends[i], at+1) // whole frames before the cut
				sw, cold := whole[i].SwitchRecords(), whole[i].ColdRecords()
				wantSw := sw[:min(frames, len(sw))]
				wantCold := cold[:max(frames-len(sw), 0)]
				if !sameRecords(l.SwitchRecords(), wantSw) || !sameRecords(l.ColdRecords(), wantCold) {
					t.Fatalf("node %d cut at %d does not decode to its %d whole frames", i, at, frames)
				}
				survivors = append(survivors, wantCold)
				kept += len(wantCold)
				dropped += len(cold) - len(wantCold)
			}
			for p := range bases {
				target := netsim.NodeID(p)
				redone := bases[p].Clone()
				var st RecoveryStats
				c.redoCold(logs, target, redone, &st)
				replayed := serialRedo(survivors, bases[p].Clone(), func(w wal.ColdWrite) bool { return gen.Home(w.Table, w.Key) == target })
				if err := sameRows(redone, replayed); err != nil {
					t.Fatalf("partition %d: redo of the cut logs differs from a serial replay: %v", p, err)
				}
			}
		})
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("the cuts kept %d and dropped %d cold records; the test wants both", kept, dropped)
	}
}

// sameRecords compares decoded records by value; no records equal nil.
func sameRecords[T any](a, b []*T) bool {
	return slices.EqualFunc(a, b, func(x, y *T) bool { return reflect.DeepEqual(x, y) })
}

// serialRedo applies the committed writes of recs that mine accepts to st,
// record by record in LSN order; records of equal LSN keep their node and
// log order.
func serialRedo(recs [][]*wal.ColdRecord, st *store.Store, mine func(wal.ColdWrite) bool) *store.Store {
	var all []*wal.ColdRecord
	for _, l := range recs {
		all = append(all, l...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].LSN < all[j].LSN })
	for _, rec := range all {
		for _, w := range rec.Writes {
			if rec.Committed && mine(w) {
				st.Table(w.Table).Set(w.Key, w.Field, w.Value)
			}
		}
	}
	return st
}

// sameRows compares two stores row by row, absent rows reading as zero.
func sameRows(a, b *store.Store) error {
	for _, tid := range a.TableIDs() {
		ta, tb := a.Table(tid), b.Table(tid)
		var diff error
		check := func(k store.Key, _ []int64) {
			for f := 0; f < ta.Fields() && diff == nil; f++ {
				if ta.Get(k, f) != tb.Get(k, f) {
					diff = fmt.Errorf("table %d key %d field %d: %d vs %d", tid, k, f, ta.Get(k, f), tb.Get(k, f))
				}
			}
		}
		ta.Walk(check)
		tb.Walk(check)
		if diff != nil {
			return diff
		}
	}
	return nil
}
