package workload

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
)

// checkHomes asserts the invariant every generator must uphold: each op's
// Home matches the generator's partitioning function.
func checkHomes(t *testing.T, g Generator, txns []*Txn) {
	t.Helper()
	for _, txn := range txns {
		for _, op := range txn.Ops {
			if op.Table == TPCCItem {
				continue // replicated read-only catalog: every node reads its own copy
			}
			if got := g.Home(op.Table, op.Key); got != op.Home {
				t.Fatalf("%s: op %v claims home %d, partitioner says %d", g.Name(), op, op.Home, got)
			}
		}
	}
}

func genMany(g Generator, n int, seed uint64) []*Txn {
	rng := sim.NewRNG(seed)
	out := make([]*Txn, n)
	for i := range out {
		out[i] = g.Next(rng, netsim.NodeID(i%g.Nodes()))
	}
	return out
}

func TestYCSBOpsPerTxnAndDistinctKeys(t *testing.T) {
	g := NewYCSB(YCSBWorkloadA(4))
	for _, txn := range genMany(g, 200, 1) {
		if len(txn.Ops) != 8 {
			t.Fatalf("ops = %d, want 8", len(txn.Ops))
		}
		seen := map[store.Key]bool{}
		for _, op := range txn.Ops {
			if seen[op.Key] {
				t.Fatal("duplicate key within a txn")
			}
			seen[op.Key] = true
		}
	}
}

func TestYCSBHomes(t *testing.T) {
	g := NewYCSB(YCSBWorkloadA(4))
	checkHomes(t, g, genMany(g, 300, 2))
}

func TestYCSBLocalTxnsStayLocal(t *testing.T) {
	cfg := YCSBWorkloadA(4)
	cfg.DistPct = 0
	g := NewYCSB(cfg)
	rng := sim.NewRNG(3)
	for i := 0; i < 100; i++ {
		txn := g.Next(rng, 2)
		if txn.Distributed(2) {
			t.Fatal("DistPct=0 produced a distributed txn")
		}
	}
}

func TestYCSBHotTxnsUseHotKeys(t *testing.T) {
	cfg := YCSBWorkloadA(2)
	cfg.HotTxnPct = 100
	g := NewYCSB(cfg)
	hot := map[store.GlobalKey]bool{}
	for _, k := range g.HotCandidates() {
		hot[k] = true
	}
	if len(hot) != 2*50 {
		t.Fatalf("hot candidates = %d, want 100", len(hot))
	}
	rng := sim.NewRNG(4)
	for i := 0; i < 100; i++ {
		for _, op := range g.Next(rng, 0).Ops {
			if !hot[op.TupleKey()] {
				t.Fatalf("hot txn touched cold key %v", op.Key)
			}
		}
	}
}

func TestYCSBWriteRatios(t *testing.T) {
	for _, tc := range []struct {
		cfg  YCSBConfig
		name string
		want int
	}{
		{YCSBWorkloadA(2), "YCSB-A", 50},
		{YCSBWorkloadB(2), "YCSB-B", 5},
		{YCSBWorkloadC(2), "YCSB-C", 0},
	} {
		g := NewYCSB(tc.cfg)
		if g.Name() != tc.name {
			t.Fatalf("Name = %q, want %q", g.Name(), tc.name)
		}
		writes, total := 0, 0
		rng := sim.NewRNG(5)
		for i := 0; i < 500; i++ {
			for _, op := range g.Next(rng, 0).Ops {
				total++
				if op.Kind.IsWrite() {
					writes++
				}
			}
		}
		got := writes * 100 / total
		if got < tc.want-5 || got > tc.want+5 {
			t.Fatalf("%s: write pct = %d, want ~%d", tc.name, got, tc.want)
		}
	}
}

func TestYCSBColdKeysAvoidHotRange(t *testing.T) {
	cfg := YCSBWorkloadA(2)
	cfg.HotTxnPct = 0
	g := NewYCSB(cfg)
	rng := sim.NewRNG(6)
	for i := 0; i < 100; i++ {
		for _, op := range g.Next(rng, 0).Ops {
			off := int64(op.Key) % cfg.RowsPerNode
			if off < int64(cfg.HotPerNode) {
				t.Fatal("cold txn touched the hot range")
			}
		}
	}
}

func TestSmallBankPopulateBalances(t *testing.T) {
	cfg := DefaultSmallBank(2, 5)
	cfg.AccountsPerNode = 100
	g := NewSmallBank(cfg)
	stores := []*store.Store{store.New(), store.New()}
	g.Populate(stores)
	if got := stores[1].Table(SBChecking).Get(150, 0); got != cfg.InitialBalance {
		t.Fatalf("balance = %d, want %d", got, cfg.InitialBalance)
	}
	if stores[0].Table(SBSavings).Rows() != 100 {
		t.Fatalf("rows = %d", stores[0].Table(SBSavings).Rows())
	}
}

func TestSmallBankHomes(t *testing.T) {
	g := NewSmallBank(DefaultSmallBank(4, 10))
	checkHomes(t, g, genMany(g, 500, 7))
}

func TestSmallBankMixHasAllTypes(t *testing.T) {
	g := NewSmallBank(DefaultSmallBank(2, 5))
	labels := map[string]int{}
	for _, txn := range genMany(g, 2000, 8) {
		labels[txn.Label]++
	}
	for _, want := range []string{"Balance", "DepositChecking", "TransactSavings", "Amalgamate", "WriteCheck", "SendPayment"} {
		if labels[want] == 0 {
			t.Fatalf("type %s never generated (mix: %v)", want, labels)
		}
	}
	// Balance is the paper's 15% read share.
	bal := labels["Balance"] * 100 / 2000
	if bal < 10 || bal > 20 {
		t.Fatalf("Balance share = %d%%, want ~15%%", bal)
	}
}

func TestSmallBankDependenciesDeclared(t *testing.T) {
	g := NewSmallBank(DefaultSmallBank(2, 5))
	for _, txn := range genMany(g, 500, 9) {
		switch txn.Label {
		case "Amalgamate":
			if txn.Ops[2].Kind != AddAcc || txn.Ops[2].DependsOn != 1 || txn.Ops[1].DependsOn != 0 {
				t.Fatalf("Amalgamate deps wrong: %+v", txn.Ops)
			}
		case "SendPayment":
			if txn.Ops[1].Kind != AddIfOK || txn.Ops[1].DependsOn != 0 {
				t.Fatalf("SendPayment deps wrong: %+v", txn.Ops)
			}
		}
	}
}

// TestSmallBankMoneyConservation: Amalgamate and SendPayment move money
// without creating or destroying it, under the shared Executor semantics.
func TestSmallBankMoneyConservation(t *testing.T) {
	cfg := DefaultSmallBank(1, 5)
	cfg.AccountsPerNode = 50
	cfg.DistPct = 0
	g := NewSmallBank(cfg)
	st := store.New()
	g.Populate([]*store.Store{st})
	total := func() int64 {
		var sum int64
		for _, tb := range []store.TableID{SBChecking, SBSavings} {
			for _, k := range st.Table(tb).Keys() {
				sum += st.Table(tb).Get(k, 0)
			}
		}
		return sum
	}
	want := total()
	rng := sim.NewRNG(11)
	applied := 0
	for applied < 300 {
		txn := g.Next(rng, 0)
		if txn.Label != "Amalgamate" && txn.Label != "SendPayment" {
			continue
		}
		ex := NewExecutor()
		for _, op := range txn.Ops {
			ex.Apply(st.Table(op.Table), op)
		}
		applied++
	}
	if got := total(); got != want {
		t.Fatalf("money not conserved: %d -> %d", want, got)
	}
}

func TestExecutorCondAddGE0BlocksOverdraft(t *testing.T) {
	st := store.New()
	tb := st.CreateTable(0, "t", 1)
	tb.Set(1, 0, 10)
	ex := NewExecutor()
	res := ex.Apply(tb, Op{Table: 0, Key: 1, Kind: CondAddGE0, Value: -15})
	if res.OK || tb.Get(1, 0) != 10 || ex.OK {
		t.Fatalf("overdraft applied: res=%+v bal=%d ok=%v", res, tb.Get(1, 0), ex.OK)
	}
	// Chained AddIfOK must now be a no-op.
	res2 := ex.Apply(tb, Op{Table: 0, Key: 2, Kind: AddIfOK, Value: 15})
	if res2.OK || tb.Get(2, 0) != 0 {
		t.Fatal("AddIfOK applied after failed constraint")
	}
}

func TestExecutorReadClearAccumulates(t *testing.T) {
	st := store.New()
	tb := st.CreateTable(0, "t", 1)
	tb.Set(1, 0, 30)
	tb.Set(2, 0, 12)
	ex := NewExecutor()
	ex.Apply(tb, Op{Key: 1, Kind: ReadClear})
	ex.Apply(tb, Op{Key: 2, Kind: ReadClear})
	ex.Apply(tb, Op{Key: 3, Kind: AddAcc})
	if tb.Get(1, 0) != 0 || tb.Get(2, 0) != 0 || tb.Get(3, 0) != 42 {
		t.Fatalf("amalgamate semantics wrong: %d %d %d", tb.Get(1, 0), tb.Get(2, 0), tb.Get(3, 0))
	}
}

func TestTPCCHomes(t *testing.T) {
	g := NewTPCC(DefaultTPCC(4, 8))
	checkHomes(t, g, genMany(g, 300, 12))
}

func TestTPCCPaymentShape(t *testing.T) {
	g := NewTPCC(DefaultTPCC(2, 8))
	rng := sim.NewRNG(13)
	for i := 0; i < 200; i++ {
		txn := g.Next(rng, 0)
		if txn.Label != "Payment" {
			continue
		}
		if len(txn.Ops) != 5 {
			t.Fatalf("Payment ops = %d, want 5", len(txn.Ops))
		}
		if txn.Ops[0].Table != TPCCWarehouse || txn.Ops[1].Table != TPCCDistrict {
			t.Fatalf("Payment op order wrong: %+v", txn.Ops[:2])
		}
		// Money flows: warehouse ytd + district ytd increase by amount,
		// customer balance decreases by it.
		if txn.Ops[0].Value != txn.Ops[1].Value || txn.Ops[2].Value != -txn.Ops[0].Value {
			t.Fatalf("Payment amounts inconsistent: %+v", txn.Ops)
		}
	}
}

func TestTPCCNewOrderShape(t *testing.T) {
	g := NewTPCC(DefaultTPCC(2, 8))
	rng := sim.NewRNG(14)
	sawNewOrder := false
	for i := 0; i < 200; i++ {
		txn := g.Next(rng, 1)
		if txn.Label != "NewOrder" {
			continue
		}
		sawNewOrder = true
		if txn.Ops[0].Table != TPCCDistrict || txn.Ops[0].Field != DistNextOID || txn.Ops[0].Value != 1 {
			t.Fatalf("NewOrder missing next_o_id increment: %+v", txn.Ops[0])
		}
		stock := map[store.Key]bool{}
		for _, op := range txn.Ops {
			if op.Table == TPCCStock {
				if stock[op.Key] {
					t.Fatal("duplicate stock key in NewOrder")
				}
				stock[op.Key] = true
				if op.Value >= 0 {
					t.Fatal("stock update must decrement")
				}
			}
		}
		if len(stock) < 1 {
			t.Fatal("NewOrder without stock updates")
		}
	}
	if !sawNewOrder {
		t.Fatal("no NewOrder generated")
	}
}

func TestTPCCOrderKeysAreFresh(t *testing.T) {
	g := NewTPCC(DefaultTPCC(2, 8))
	rng := sim.NewRNG(15)
	seen := map[store.Key]bool{}
	for i := 0; i < 300; i++ {
		txn := g.Next(rng, netsim.NodeID(i%2))
		if txn.Label != "NewOrder" {
			continue
		}
		for _, op := range txn.Ops {
			if op.Table == TPCCOrder && op.Field == 0 {
				if seen[op.Key] {
					t.Fatal("order key reused")
				}
				seen[op.Key] = true
			}
		}
	}
}

func TestTPCCHotCandidates(t *testing.T) {
	cfg := DefaultTPCC(2, 8)
	g := NewTPCC(cfg)
	want := 8 + 8*10*2 + 8*cfg.HotItemsPerWH
	if got := len(g.HotCandidates()); got != want {
		t.Fatalf("hot candidates = %d, want %d", got, want)
	}
}

func TestTPCCWarehouseNodeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on warehouses not divisible by nodes")
		}
	}()
	NewTPCC(DefaultTPCC(3, 8))
}

func TestYCSBHotKeysUseDistinctCongruenceClasses(t *testing.T) {
	// The single-pass guarantee rests on each hot transaction's keys
	// coming from pairwise-distinct congruence classes mod OpsPerTxn.
	cfg := YCSBWorkloadA(2)
	cfg.HotTxnPct = 100
	g := NewYCSB(cfg)
	rng := sim.NewRNG(77)
	for i := 0; i < 200; i++ {
		txn := g.Next(rng, 0)
		seen := map[int64]bool{}
		for _, op := range txn.Ops {
			class := (int64(op.Key) % cfg.RowsPerNode) % int64(cfg.OpsPerTxn)
			if seen[class] {
				t.Fatalf("two hot keys share congruence class %d", class)
			}
			seen[class] = true
		}
	}
}

func TestSmallBankTransferDirectionBias(t *testing.T) {
	g := NewSmallBank(DefaultSmallBank(4, 10))
	rng := sim.NewRNG(88)
	for i := 0; i < 2000; i++ {
		txn := g.Next(rng, 1)
		if txn.Label != "SendPayment" && txn.Label != "Amalgamate" {
			continue
		}
		first, last := txn.Ops[0], txn.Ops[len(txn.Ops)-1]
		if first.Key > last.Key {
			t.Fatalf("%s moves money downward: %d -> %d", txn.Label, first.Key, last.Key)
		}
	}
}

func TestLockSetSortedDedupedAndModed(t *testing.T) {
	// A hand-built transaction with a duplicate row (read then write), out
	// of key order, across two tables: LockSet must return one entry per
	// distinct row, in ascending global key order, write-mode when any
	// operation writes the row.
	txn := &Txn{Ops: []Op{
		{Table: SBSavings, Key: 5, Home: 1, Kind: Read, DependsOn: -1},
		{Table: SBChecking, Key: 9, Home: 1, Kind: Read, DependsOn: -1},
		{Table: SBChecking, Key: 2, Home: 0, Kind: Read, DependsOn: -1},
		{Table: SBChecking, Key: 9, Home: 1, Kind: Add, Value: 1, DependsOn: -1}, // upgrades row 9 to write
	}}
	refs := txn.LockSet()
	if len(refs) != 3 {
		t.Fatalf("LockSet has %d entries, want 3 (row 9 deduplicated): %+v", len(refs), refs)
	}
	for i := 1; i < len(refs); i++ {
		if refs[i-1].Key >= refs[i].Key {
			t.Fatalf("LockSet not in ascending key order: %+v", refs)
		}
	}
	byKey := map[store.GlobalKey]LockRef{}
	for _, r := range refs {
		byKey[r.Key] = r
	}
	if r := byKey[store.Global(SBChecking, 9)]; !r.Write || r.Home != 1 {
		t.Fatalf("row 9 = %+v, want write-mode at home 1 (read+write dedup keeps strongest mode)", r)
	}
	if r := byKey[store.Global(SBChecking, 2)]; r.Write {
		t.Fatalf("row 2 = %+v, want read-mode", r)
	}
	if r := byKey[store.Global(SBSavings, 5)]; r.Write {
		t.Fatalf("savings row 5 = %+v, want read-mode", r)
	}
}

func TestLockSetCoversEveryGeneratedOp(t *testing.T) {
	// For every generator, each generated operation's row must appear in
	// the declared lock set with a sufficient mode — the invariant the
	// deterministic engine relies on to lock before executing.
	gens := []Generator{
		NewYCSB(YCSBWorkloadA(4)),
		NewSmallBank(DefaultSmallBank(4, 5)),
		NewTPCC(DefaultTPCC(4, 4)),
	}
	for _, g := range gens {
		for _, txn := range genMany(g, 200, 99) {
			refs := txn.LockSet()
			byKey := map[store.GlobalKey]LockRef{}
			for _, r := range refs {
				byKey[r.Key] = r
			}
			for _, op := range txn.Ops {
				r, ok := byKey[op.LockKey()]
				if !ok {
					t.Fatalf("%s: op %+v not in declared lock set", g.Name(), op)
				}
				if op.Kind.IsWrite() && !r.Write {
					t.Fatalf("%s: write op %+v declared read-mode", g.Name(), op)
				}
				if r.Home != op.Home {
					t.Fatalf("%s: op %+v declared home %d", g.Name(), op, r.Home)
				}
			}
		}
	}
}

func TestSetDeclarers(t *testing.T) {
	// YCSB and SmallBank pre-declare exact sets; TPC-C's real-world
	// counterpart has data-dependent reads, so it must answer false and
	// route deterministic engines through the reconnaissance pass.
	for _, tc := range []struct {
		gen  Generator
		want bool
	}{
		{NewYCSB(YCSBWorkloadA(4)), true},
		{NewSmallBank(DefaultSmallBank(4, 5)), true},
		{NewTPCC(DefaultTPCC(4, 4)), false},
	} {
		d, ok := tc.gen.(SetDeclarer)
		if !ok {
			t.Fatalf("%s does not implement SetDeclarer", tc.gen.Name())
		}
		if got := d.DeclaresKeySets(); got != tc.want {
			t.Fatalf("%s.DeclaresKeySets() = %v, want %v", tc.gen.Name(), got, tc.want)
		}
	}
}
