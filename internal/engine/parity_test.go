package engine_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

type gridCell struct{ engine, scheme string }

// parityGrid enumerates the engine x scheme grid, deduplicating cells that
// resolve to the same effective pairing (scheme-pinned engines).
func parityGrid(t *testing.T) []gridCell {
	t.Helper()
	var grid []gridCell
	seen := make(map[gridCell]bool)
	for _, name := range engine.Names() {
		e, err := engine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range engine.SchemeNames() {
			sch, err := engine.ResolveScheme(e, scheme)
			if err != nil {
				t.Fatalf("ResolveScheme(%s, %s): %v", name, scheme, err)
			}
			eff := gridCell{name, sch.Name()}
			if seen[eff] {
				continue
			}
			seen[eff] = true
			grid = append(grid, eff)
		}
	}
	// noswitch and p4db run under all three schemes; lmswitch, chiller,
	// occ and calvin pin theirs — 10 effective pairings.
	if len(grid) < 10 {
		t.Fatalf("grid has only %d effective pairings: %v", len(grid), grid)
	}
	if !seen[gridCell{"calvin", engine.Scheme2PL}] {
		t.Fatal("deterministic engine missing from the parity grid")
	}
	return grid
}

// paritySmallBank is the grid's workload: few accounts, half of all
// transactions distributed, so the remote-access and 2PC paths run.
func paritySmallBank(nodes int) *workload.SmallBank {
	sbc := workload.DefaultSmallBank(nodes, 3)
	sbc.AccountsPerNode = 100
	sbc.DistPct = 50
	return workload.NewSmallBank(sbc)
}

// serialFinalState builds one cell over gen, drives 300 transactions
// through it — one at a time from a single driver process, each obtained
// from next — and returns the final logical state. For P4DB the hot
// tuples' values live in the switch registers, so reads go through the
// engine's data placement.
func serialFinalState(t *testing.T, cell gridCell, gen workload.Generator, next func(*sim.RNG, netsim.NodeID) *workload.Txn) map[store.GlobalKey]int64 {
	t.Helper()
	const (
		nodes = 2
		txns  = 300
	)
	cfg := core.DefaultConfig()
	cfg.Engine = cell.engine
	cfg.Scheme = cell.scheme
	cfg.Nodes = nodes
	cfg.WorkersPerNode = 1
	cfg.SampleTxns = 4000
	cfg.Switch.SlotsPerArray = 64
	c := core.NewCluster(cfg, gen)
	defer c.Env().Shutdown()

	ctx := c.EngineContext()
	eng := c.Engine()
	var driveErr error
	c.Env().Spawn("driver", func(p *sim.Proc) {
		rng := sim.NewRNG(7)
		for k := 0; k < txns; k++ {
			txn := next(rng, c.Node(0).ID())
			if _, err := ctx.ExecuteSync(p, eng, c.Node(0), txn); err != nil {
				// Serial execution cannot conflict; a single retry
				// would mask a real strategy bug, so fail instead.
				driveErr = fmt.Errorf("%s/%s: txn %d aborted: %w", cell.engine, cell.scheme, k, err)
				return
			}
		}
	})
	c.Env().Run()
	if driveErr != nil {
		t.Fatal(driveErr)
	}

	state := make(map[store.GlobalKey]int64)
	for i := 0; i < nodes; i++ {
		st := c.Node(i).Store()
		for _, tb := range []store.TableID{workload.SBChecking, workload.SBSavings} {
			for _, k := range st.Table(tb).Keys() {
				gk := store.GlobalField(tb, 0, k)
				if ctx.UseSwitch && c.HotIndex().OnSwitch(gk) {
					continue // read through the switch below
				}
				state[gk] = st.Table(tb).Get(k, 0)
			}
		}
	}
	if ctx.UseSwitch {
		for _, tid := range c.Layout().Tuples() {
			s, _ := c.Layout().SlotOf(tid)
			state[store.GlobalKey(tid)] = c.Switch().ReadRegister(s.Stage, s.Array, s.Index)
		}
	}
	return state
}

func requireSameState(t *testing.T, ref gridCell, want map[store.GlobalKey]int64, cell gridCell, got map[store.GlobalKey]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%v tracked %d tuples, %v tracked %d", cell, len(got), ref, len(want))
	}
	for gk, w := range want {
		if got[gk] != w {
			table, field, key := gk.SplitField()
			t.Fatalf("%v and %v diverge at table %d key %d field %d: %d vs %d", ref, cell, table, key, field, w, got[gk])
		}
	}
}

// TestEngineSchemeGridSerialParity drives an identical, serial sequence
// of SmallBank transactions through the full engine x scheme grid and
// asserts every pairing reaches the same final database state. With a
// single driver process there is no concurrency, so every combination —
// 2PL, OCC or MVCC under every execution strategy — must apply exactly
// the same serial history; any divergence is an isolation or bookkeeping
// bug in that strategy or scheme.
func TestEngineSchemeGridSerialParity(t *testing.T) {
	grid := parityGrid(t)
	fresh := func(cell gridCell) map[store.GlobalKey]int64 {
		gen := paritySmallBank(2)
		return serialFinalState(t, cell, gen, gen.Next)
	}
	ref := fresh(grid[0])
	if len(ref) == 0 {
		t.Fatal("reference pairing produced an empty state")
	}
	for _, cell := range grid[1:] {
		requireSameState(t, grid[0], ref, cell, fresh(cell))
	}
}

// poisonGen is SmallBank with a booby-trapped NextInto: before refilling
// the caller's Txn it overwrites every operation the Txn held with a table
// no store has, a node no cluster has and a kind no interpreter knows, and
// makes the generator fill a fresh buffer. Whoever still holds the previous
// transaction's operations — through the Txn or through a slice of its
// Ops — and looks at them after that dies in Store.Table, in a node lookup
// or in the op-kind switch.
type poisonGen struct{ *workload.SmallBank }

func (g poisonGen) NextInto(rng *sim.RNG, self netsim.NodeID, txn *workload.Txn) {
	for i := range txn.Ops {
		txn.Ops[i] = workload.Op{Table: 255, Home: 1 << 20, Kind: 255, DependsOn: 1 << 20}
	}
	txn.Ops = nil
	g.SmallBank.NextInto(rng, self, txn)
}

// TestTxnIsDeadToTheEngineAfterK pins the ownership rule that lets a
// worker embed its one Txn: an engine reads a transaction until it calls
// the attempt's continuation and never after. Every cell of the serial
// grid runs to completion with one Txn refilled by the poisoned generator
// and must end in the state a fresh Txn per transaction produces (a late
// read through the Txn itself sees the successor, not poison, and shows
// as a divergence). Then 4 nodes x 16 workers run every cell concurrently
// — aborts with rollbacks in flight, warm commits with multicast handlers
// pending, calvin batches parked in the sequencer — and must match the
// plain generator's run commit for commit and byte for byte.
func TestTxnIsDeadToTheEngineAfterK(t *testing.T) {
	grid := parityGrid(t)
	plainGen := paritySmallBank(2)
	ref := serialFinalState(t, grid[0], plainGen, plainGen.Next)
	for _, cell := range grid {
		gen := poisonGen{paritySmallBank(2)}
		var txn workload.Txn
		got := serialFinalState(t, cell, gen, func(rng *sim.RNG, self netsim.NodeID) *workload.Txn {
			gen.NextInto(rng, self, &txn)
			return &txn
		})
		requireSameState(t, grid[0], ref, cell, got)
	}

	concurrent := func(cell gridCell, poison bool) *core.Result {
		cfg := core.DefaultConfig()
		cfg.Engine, cfg.Scheme = cell.engine, cell.scheme
		cfg.Nodes, cfg.WorkersPerNode = 4, 16
		cfg.SampleTxns = 4000
		cfg.Switch.SlotsPerArray = 64
		cfg.Durable, cfg.CaptureState = true, true
		var gen workload.Generator = paritySmallBank(4)
		if poison {
			gen = poisonGen{gen.(*workload.SmallBank)}
		}
		return core.NewCluster(cfg, gen).Run(100*sim.Microsecond, 400*sim.Microsecond)
	}
	for _, cell := range grid {
		plain, poisoned := concurrent(cell, false), concurrent(cell, true)
		if plain.Counters.Committed() == 0 || plain.Counters != poisoned.Counters ||
			plain.Events != poisoned.Events || plain.StateDigest != poisoned.StateDigest {
			t.Errorf("%v: poisoned run diverged: %+v / %d events / %.12s, plain %+v / %d events / %.12s", cell,
				poisoned.Counters, poisoned.Events, poisoned.StateDigest, plain.Counters, plain.Events, plain.StateDigest)
		}
		if cell.engine != "calvin" && plain.Counters.Aborts == 0 {
			t.Errorf("%v: no aborts in the concurrent run: rollbacks were never in flight", cell)
		}
	}
}
