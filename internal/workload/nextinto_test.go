package workload

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
)

// everyGenerator builds each registered generator, the YCSB and drift ones
// also at Zipf theta 0.9, twice over: a pair shares nothing, so one side
// can run the retired bodies below while the other runs NextInto.
func everyGenerator(t *testing.T, nodes int) map[string][2]Generator {
	t.Helper()
	out := make(map[string][2]Generator)
	for _, name := range Names() {
		for _, theta := range []float64{0, 0.9} {
			var pair [2]Generator
			for i := range pair {
				g, err := ByNameTheta(name, nodes, theta)
				if err != nil {
					if theta != 0 {
						break // no skew axis (smallbank, tpcc)
					}
					t.Fatal(err)
				}
				pair[i] = g
			}
			if pair[0] != nil {
				out[fmt.Sprintf("%s/theta=%g", name, theta)] = pair
			}
		}
	}
	return out
}

// oldNext dispatches to the generator's retired allocating body.
func oldNext(g Generator, rng *sim.RNG, self netsim.NodeID) *Txn {
	switch g := g.(type) {
	case *YCSB:
		return g.oldNext(rng, self)
	case *SmallBank:
		return g.oldNext(rng, self)
	case *TPCC:
		return g.oldNext(rng, self)
	case *Drift:
		return g.oldNext(rng, self)
	}
	panic("no retired body for " + g.Name())
}

// TestNextIntoMatchesRetiredNext is the stream oracle: the Next bodies as
// they were before NextInto (verbatim below: fresh Txn and Ops per call,
// duplicate keys rejected through a map) against NextInto refilling one
// warmed Txn, 20k transactions x 3 seeds x every registered generator. The
// drifting ones cross their phase change half way. Labels and operations
// must be identical and both RNGs must end in the same state, which is
// what keeps every seeded digest where it was.
func TestNextIntoMatchesRetiredNext(t *testing.T) {
	const nodes, txns = 4, 20000
	for name, pair := range everyGenerator(t, nodes) {
		for seed := uint64(1); seed <= 3; seed++ {
			i := 0
			for _, g := range pair {
				if cd, ok := g.(ClockDriven); ok {
					cd.SetClock(func() sim.Time { return driftStdPhase * sim.Time(i) / (txns / 2) })
				}
			}
			oldRNG, newRNG := sim.NewRNG(seed), sim.NewRNG(seed)
			var got Txn
			labels := map[string]bool{}
			for i = 0; i < txns; i++ {
				self := netsim.NodeID(i % nodes)
				want := oldNext(pair[0], oldRNG, self)
				pair[1].NextInto(newRNG, self, &got)
				if got.Label != want.Label || !slices.Equal(got.Ops, want.Ops) {
					t.Fatalf("%s seed %d txn %d:\n got %s %v\nwant %s %v", name, seed, i, got.Label, got.Ops, want.Label, want.Ops)
				}
				if *oldRNG != *newRNG {
					t.Fatalf("%s seed %d txn %d: the RNG streams diverged", name, seed, i)
				}
				labels[got.Label] = true
			}
			if strings.HasPrefix(name, "ycsb-flash") && !labels["YCSB-flash"] {
				t.Fatalf("%s: no flash transaction after the phase change (labels %v)", name, labels)
			}
		}
	}
}

// TestNextIntoZeroAlloc pins every generator at zero heap allocations per
// transaction into a warmed Txn, and Next — the face benchmark/ retains
// transactions from — at the Txn plus one Ops sized up front.
func TestNextIntoZeroAlloc(t *testing.T) {
	for name, pair := range everyGenerator(t, 4) {
		g := pair[0]
		rng := sim.NewRNG(9)
		var txn Txn
		for i := 0; i < 1000; i++ {
			g.NextInto(rng, netsim.NodeID(i%4), &txn) // warm: TPC-C reaches its longest NewOrder
		}
		if avg := testing.AllocsPerRun(2000, func() { g.NextInto(rng, 1, &txn) }); avg != 0 {
			t.Errorf("%s: NextInto allocates %.2f objects per transaction, want 0", name, avg)
		}
		if avg := testing.AllocsPerRun(2000, func() { g.Next(rng, 1) }); avg != 2 {
			t.Errorf("%s: Next allocates %.2f objects per transaction, want 2", name, avg)
		}
	}
}

// TestNextReturnsIndependentTxns: what Next returns is the caller's to
// keep; a later call must not write into it.
func TestNextReturnsIndependentTxns(t *testing.T) {
	for name, pair := range everyGenerator(t, 4) {
		rng := sim.NewRNG(5)
		first := pair[0].Next(rng, 0)
		snapshot := slices.Clone(first.Ops)
		for i := 0; i < 100; i++ {
			pair[0].Next(rng, 0)
		}
		if !slices.Equal(first.Ops, snapshot) {
			t.Fatalf("%s: a later Next overwrote an earlier transaction", name)
		}
	}
}

// TestTwoLevelConfigsRejectedAtConstruction: configurations that used to be
// accepted and then died inside the first Next with "sim: Intn with
// non-positive n" are refused up front, naming the fields; everything the
// figures and the registry build stays valid.
func TestTwoLevelConfigsRejectedAtConstruction(t *testing.T) {
	ycsb := func(edit func(*YCSBConfig)) func() Generator {
		return func() Generator {
			cfg := YCSBWorkloadA(2)
			edit(&cfg)
			return NewYCSB(cfg)
		}
	}
	drift := func(mode DriftMode, edit func(*DriftConfig)) func() Generator {
		return func() Generator {
			cfg := DefaultDrift(2, mode, driftStdPhase)
			cfg.OraclePhase = 1 // past the shift, so the flash body runs
			edit(&cfg)
			return NewDrift(cfg)
		}
	}
	for _, tc := range []struct {
		name   string
		build  func() Generator
		reject string // substring of the panic, "" when the config is valid
	}{
		{"ycsb default", ycsb(func(*YCSBConfig) {}), ""},
		{"ycsb fig17 low", ycsb(func(c *YCSBConfig) { c.HotPerNode = 50 }), ""},
		{"ycsb fig17 high", ycsb(func(c *YCSBConfig) { c.HotPerNode = 32750 }), ""},
		{"ycsb hot == ops", ycsb(func(c *YCSBConfig) { c.HotPerNode = 8 }), ""},
		{"ycsb hot < ops", ycsb(func(c *YCSBConfig) { c.HotPerNode = 7 }), "HotPerNode 7 < OpsPerTxn 8"},
		{"ycsb no hot keys", ycsb(func(c *YCSBConfig) { c.HotPerNode = 0 }), "HotPerNode 0 < OpsPerTxn 8"},
		{"ycsb no hot keys, no hot txns", ycsb(func(c *YCSBConfig) { c.HotPerNode, c.HotTxnPct = 0, 0 }), ""},
		{"ycsb no hot keys, zipfian", ycsb(func(c *YCSBConfig) { c.HotPerNode, c.Zipfian, c.Theta = 0, true, 0.9 }), ""},
		{"ycsb all hot", ycsb(func(c *YCSBConfig) { c.HotPerNode, c.RowsPerNode = 64, 64 }), "HotPerNode == RowsPerNode"},
		{"ycsb all hot, only hot txns", ycsb(func(c *YCSBConfig) { c.HotPerNode, c.RowsPerNode, c.HotTxnPct = 64, 64, 100 }), ""},
		{"drift rotate default", drift(DriftRotate, func(*DriftConfig) {}), ""},
		{"drift rotate hot < ops", drift(DriftRotate, func(c *DriftConfig) { c.HotPerNode = 3 }), "HotPerNode 3 < OpsPerTxn 8"},
		{"drift rotate all hot", drift(DriftRotate, func(c *DriftConfig) { c.HotPerNode, c.RowsPerNode = 64, 64 }), ""},
		{"drift rotate zipfian, no hot keys", drift(DriftRotate, func(c *DriftConfig) { c.HotPerNode, c.Zipfian, c.Theta = 0, true, 0.9 }), ""},
		{"drift flash zipfian, no hot keys", drift(DriftFlash, func(c *DriftConfig) { c.HotPerNode, c.Zipfian, c.Theta = 0, true, 0.9 }), "HotPerNode 0 < OpsPerTxn 8"},
		{"drift flash, no hot txns", drift(DriftFlash, func(c *DriftConfig) { c.HotPerNode, c.HotTxnPct = 0, 0 }), "HotPerNode 0 < OpsPerTxn 8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				switch {
				case tc.reject == "" && r != nil:
					t.Fatalf("valid config panicked: %v", r)
				case tc.reject != "" && (r == nil || !strings.Contains(fmt.Sprint(r), tc.reject)):
					t.Fatalf("panic = %v, want one naming %q", r, tc.reject)
				}
			}()
			g := tc.build()
			// What construction accepts must generate.
			rng := sim.NewRNG(3)
			var txn Txn
			for i := 0; i < 500; i++ {
				g.NextInto(rng, netsim.NodeID(i%2), &txn)
			}
			if tc.reject != "" {
				t.Fatal("construction accepted the config and generation survived")
			}
		})
	}
}

// The retired generator bodies, verbatim but for their names and those of
// the sampler fields.

func (y *YCSB) oldColdKey(rng *sim.RNG, node netsim.NodeID) store.Key {
	off := int64(y.cfg.HotPerNode) + rng.Int63n(y.cfg.RowsPerNode-int64(y.cfg.HotPerNode))
	return store.Key(int64(node)*y.cfg.RowsPerNode + off)
}

func (y *YCSB) oldNext(rng *sim.RNG, self netsim.NodeID) *Txn {
	if y.cfg.Zipfian {
		return y.oldNextZipf(rng, self)
	}
	hot := rng.Bool(y.cfg.HotTxnPct)
	dist := rng.Bool(y.cfg.DistPct)
	txn := &Txn{Label: "YCSB", Ops: make([]Op, 0, y.cfg.OpsPerTxn)}
	seen := make(map[store.Key]struct{}, y.cfg.OpsPerTxn)
	for len(txn.Ops) < y.cfg.OpsPerTxn {
		node := self
		if dist {
			node = netsim.NodeID(rng.Intn(y.cfg.NumNodes))
		}
		var key store.Key
		if hot {
			j := len(txn.Ops)
			classSize := (y.cfg.HotPerNode - j + y.cfg.OpsPerTxn - 1) / y.cfg.OpsPerTxn
			key = y.hotKey(node, int64(j+y.cfg.OpsPerTxn*rng.Intn(classSize)))
		} else {
			key = y.oldColdKey(rng, node)
		}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		kind := Read
		var val int64
		if rng.Bool(y.cfg.WritePct) {
			kind = Write
			val = int64(rng.Uint32())
		}
		txn.Ops = append(txn.Ops, Op{
			Table: YCSBTable, Key: key, Field: 0, Home: node,
			Kind: kind, Value: val, DependsOn: -1,
		})
	}
	return txn
}

func (y *YCSB) oldNextZipf(rng *sim.RNG, self netsim.NodeID) *Txn {
	dist := rng.Bool(y.cfg.DistPct)
	nodes := int64(y.cfg.NumNodes)
	txn := &Txn{Label: "YCSB", Ops: make([]Op, 0, y.cfg.OpsPerTxn)}
	seen := make(map[store.Key]struct{}, y.cfg.OpsPerTxn)
	for len(txn.Ops) < y.cfg.OpsPerTxn {
		node := self
		var key store.Key
		if dist {
			r := y.zipf.global.Next(rng)
			node = netsim.NodeID(r % nodes)
			key = store.Key(int64(node)*y.cfg.RowsPerNode + r/nodes)
		} else {
			key = store.Key(int64(self)*y.cfg.RowsPerNode + y.zipf.local.Next(rng))
		}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		kind := Read
		var val int64
		if rng.Bool(y.cfg.WritePct) {
			kind = Write
			val = int64(rng.Uint32())
		}
		txn.Ops = append(txn.Ops, Op{
			Table: YCSBTable, Key: key, Field: 0, Home: node,
			Kind: kind, Value: val, DependsOn: -1,
		})
	}
	return txn
}

func (sb *SmallBank) oldNext(rng *sim.RNG, self netsim.NodeID) *Txn {
	hot := rng.Bool(sb.cfg.HotTxnPct)
	dist := rng.Bool(sb.cfg.DistPct)
	nodeFor := func() netsim.NodeID {
		if dist {
			return netsim.NodeID(rng.Intn(sb.cfg.NumNodes))
		}
		return self
	}
	a := sb.account(rng, nodeFor(), hot)
	amount := int64(rng.Intn(100) + 1)
	var b store.Key
	for {
		b = sb.account(rng, nodeFor(), hot)
		if b != a {
			break
		}
		if sb.cfg.HotPerNode == 1 && !dist && hot {
			// Single hot account per node and local-only: fall back to a
			// remote hot account to keep two-account txns meaningful.
			b = sb.account(rng, netsim.NodeID((int(self)+1)%sb.cfg.NumNodes), hot)
			break
		}
	}
	// Transfers flow from the lower to the higher account id. Without
	// this bias the two directions of every account pair impose cyclic
	// ordering constraints on the switch layout and half of all transfers
	// would need a second pipeline pass; with it a single-pass-compatible
	// total order of the hot tuples exists, matching the paper's
	// observation that all SmallBank hot transactions run single-pass.
	if a > b {
		a, b = b, a
	}
	homeA, homeB := sb.Home(SBChecking, a), sb.Home(SBChecking, b)

	switch rng.Intn(100) {
	case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14: // 15%: Balance
		return &Txn{Label: "Balance", Ops: []Op{
			{Table: SBChecking, Key: a, Home: homeA, Kind: Read, DependsOn: -1},
			{Table: SBSavings, Key: a, Home: homeA, Kind: Read, DependsOn: -1},
		}}
	default:
		switch rng.Intn(5) {
		case 0: // DepositChecking
			return &Txn{Label: "DepositChecking", Ops: []Op{
				{Table: SBChecking, Key: a, Home: homeA, Kind: Add, Value: amount, DependsOn: -1},
			}}
		case 1: // TransactSavings (withdrawal with non-negative constraint)
			return &Txn{Label: "TransactSavings", Ops: []Op{
				{Table: SBSavings, Key: a, Home: homeA, Kind: CondAddGE0, Value: -amount, DependsOn: -1},
			}}
		case 2: // Amalgamate: move all funds of A into B's checking
			return &Txn{Label: "Amalgamate", Ops: []Op{
				{Table: SBSavings, Key: a, Home: homeA, Kind: ReadClear, DependsOn: -1},
				{Table: SBChecking, Key: a, Home: homeA, Kind: ReadClear, DependsOn: 0},
				{Table: SBChecking, Key: b, Home: homeB, Kind: AddAcc, DependsOn: 1},
			}}
		case 3: // WriteCheck: read savings, conditionally debit checking
			return &Txn{Label: "WriteCheck", Ops: []Op{
				{Table: SBSavings, Key: a, Home: homeA, Kind: Read, DependsOn: -1},
				{Table: SBChecking, Key: a, Home: homeA, Kind: CondAddGE0, Value: -amount, DependsOn: 0},
			}}
		default: // SendPayment: debit A, credit B only if the debit held
			return &Txn{Label: "SendPayment", Ops: []Op{
				{Table: SBChecking, Key: a, Home: homeA, Kind: CondAddGE0, Value: -amount, DependsOn: -1},
				{Table: SBChecking, Key: b, Home: homeB, Kind: AddIfOK, Value: amount, DependsOn: 0},
			}}
		}
	}
}

func (tc *TPCC) oldNext(rng *sim.RNG, self netsim.NodeID) *Txn {
	localWH := int(self)*tc.whPerNode() + rng.Intn(tc.whPerNode())
	if rng.Bool(tc.cfg.PaymentPct) {
		return tc.oldPayment(rng, self, localWH)
	}
	return tc.oldNewOrder(rng, self, localWH)
}

func (tc *TPCC) oldPayment(rng *sim.RNG, self netsim.NodeID, wh int) *Txn {
	d := rng.Intn(tc.cfg.DistrictsPerWH)
	amount := int64(rng.Intn(5000) + 1)
	custWH := wh
	if rng.Bool(tc.cfg.DistPct) {
		custWH = rng.Intn(tc.cfg.Warehouses)
	}
	c := rng.Intn(tc.cfg.CustomersPerDis)
	custKey := tc.customerKey(custWH, d, c)
	return &Txn{Label: "Payment", Ops: []Op{
		{Table: TPCCWarehouse, Key: store.Key(wh), Field: 0, Home: tc.homeOfWH(wh),
			Kind: Add, Value: amount, DependsOn: -1},
		{Table: TPCCDistrict, Key: tc.districtKey(wh, d), Field: DistYTD, Home: tc.homeOfWH(wh),
			Kind: Add, Value: amount, DependsOn: -1},
		{Table: TPCCCustomer, Key: custKey, Field: 0, Home: tc.homeOfWH(custWH),
			Kind: Add, Value: -amount, DependsOn: -1},
		{Table: TPCCCustomer, Key: custKey, Field: 1, Home: tc.homeOfWH(custWH),
			Kind: Add, Value: amount, DependsOn: -1},
		{Table: TPCCCustomer, Key: custKey, Field: 2, Home: tc.homeOfWH(custWH),
			Kind: Add, Value: 1, DependsOn: -1},
	}}
}

func (tc *TPCC) oldNewOrder(rng *sim.RNG, self netsim.NodeID, wh int) *Txn {
	d := rng.Intn(tc.cfg.DistrictsPerWH)
	nItems := rng.Intn(11) + 5
	ops := make([]Op, 0, nItems*2+3)
	ops = append(ops, Op{
		Table: TPCCDistrict, Key: tc.districtKey(wh, d), Field: DistNextOID,
		Home: tc.homeOfWH(wh), Kind: Add, Value: 1, DependsOn: -1,
	})
	seen := make(map[store.Key]struct{}, nItems)
	for i := 0; i < nItems; i++ {
		itemWH := wh
		if rng.Bool(tc.cfg.DistPct) {
			itemWH = rng.Intn(tc.cfg.Warehouses)
		}
		// Popular items: half the order lines hit the hot stock subset.
		var item int
		if rng.Bool(50) {
			item = rng.Intn(tc.cfg.HotItemsPerWH)
		} else {
			item = tc.cfg.HotItemsPerWH + rng.Intn(tc.cfg.ItemsPerWH-tc.cfg.HotItemsPerWH)
		}
		sk := tc.stockKey(itemWH, item)
		if _, dup := seen[sk]; dup {
			continue
		}
		seen[sk] = struct{}{}
		qty := int64(rng.Intn(10) + 1)
		// Item price lookup: read-only local catalog row.
		ops = append(ops, Op{
			Table: TPCCItem, Key: store.Key(item), Home: self,
			Kind: Read, DependsOn: -1,
		})
		// Stock quantity decrement (TPC-C refills below 10; modelled as a
		// plain decrement against a large starting quantity).
		ops = append(ops, Op{
			Table: TPCCStock, Key: sk, Field: 0, Home: tc.homeOfWH(itemWH),
			Kind: Add, Value: -qty, DependsOn: -1,
		})
	}
	// Insert the order row: a fresh, uncontended key from the node-local
	// sequence (the hot d_next_o_id counter above provides the TPC-C
	// order-id semantics and its contention).
	tc.orderSeq[self]++
	orderKey := store.Key(int64(self)<<40 | tc.orderSeq[self])
	ops = append(ops, Op{
		Table: TPCCOrder, Key: orderKey, Field: 0, Home: self,
		Kind: Write, Value: int64(rng.Intn(tc.cfg.CustomersPerDis)), DependsOn: -1,
	}, Op{
		Table: TPCCOrder, Key: orderKey, Field: 1, Home: self,
		Kind: Write, Value: int64(nItems), DependsOn: -1,
	})
	return &Txn{Label: "NewOrder", Ops: ops}
}

func (d *Drift) oldNext(rng *sim.RNG, self netsim.NodeID) *Txn {
	p := d.phase()
	if d.cfg.Mode == DriftFlash && p >= 1 && rng.Bool(d.cfg.FlashPct) {
		return d.oldNextFlash(rng, self)
	}
	var rot int64
	if d.cfg.Mode == DriftRotate {
		rot = d.rotation(p)
	}
	if d.cfg.Zipfian {
		return d.oldNextZipf(rng, self, rot)
	}
	return d.oldNextTwoLevel(rng, self, rot)
}

func (d *Drift) oldNextTwoLevel(rng *sim.RNG, self netsim.NodeID, rot int64) *Txn {
	hot := rng.Bool(d.cfg.HotTxnPct)
	dist := rng.Bool(d.cfg.DistPct)
	txn := &Txn{Label: "YCSB-drift", Ops: make([]Op, 0, d.cfg.OpsPerTxn)}
	seen := make(map[store.Key]struct{}, d.cfg.OpsPerTxn)
	for len(txn.Ops) < d.cfg.OpsPerTxn {
		node := self
		if dist {
			node = netsim.NodeID(rng.Intn(d.cfg.NumNodes))
		}
		var off int64
		if hot {
			// Congruence-class draw within the rotated hot region (see
			// YCSB.Next for why classes keep hot transactions single-pass).
			j := len(txn.Ops)
			classSize := (d.cfg.HotPerNode - j + d.cfg.OpsPerTxn - 1) / d.cfg.OpsPerTxn
			off = (rot + int64(j+d.cfg.OpsPerTxn*rng.Intn(classSize))) % d.cfg.RowsPerNode
		} else {
			off = rng.Int63n(d.cfg.RowsPerNode)
		}
		key := store.Key(int64(node)*d.cfg.RowsPerNode + off)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		txn.Ops = append(txn.Ops, d.oldOp(rng, node, key))
	}
	return txn
}

func (d *Drift) oldNextZipf(rng *sim.RNG, self netsim.NodeID, rot int64) *Txn {
	dist := rng.Bool(d.cfg.DistPct)
	nodes := int64(d.cfg.NumNodes)
	txn := &Txn{Label: "YCSB-drift", Ops: make([]Op, 0, d.cfg.OpsPerTxn)}
	seen := make(map[store.Key]struct{}, d.cfg.OpsPerTxn)
	for len(txn.Ops) < d.cfg.OpsPerTxn {
		node := self
		var off int64
		if dist {
			r := d.zipf.global.Next(rng)
			node = netsim.NodeID(r % nodes)
			off = (r/nodes + rot) % d.cfg.RowsPerNode
		} else {
			off = (d.zipf.local.Next(rng) + rot) % d.cfg.RowsPerNode
		}
		key := store.Key(int64(node)*d.cfg.RowsPerNode + off)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		txn.Ops = append(txn.Ops, d.oldOp(rng, node, key))
	}
	return txn
}

func (d *Drift) oldNextFlash(rng *sim.RNG, self netsim.NodeID) *Txn {
	dist := rng.Bool(d.cfg.DistPct)
	txn := &Txn{Label: "YCSB-flash", Ops: make([]Op, 0, d.cfg.OpsPerTxn)}
	seen := make(map[store.Key]struct{}, d.cfg.OpsPerTxn)
	for len(txn.Ops) < d.cfg.OpsPerTxn {
		node := self
		if dist {
			node = netsim.NodeID(rng.Intn(d.cfg.NumNodes))
		}
		j := len(txn.Ops)
		classSize := (d.cfg.HotPerNode - j + d.cfg.OpsPerTxn - 1) / d.cfg.OpsPerTxn
		off := (d.cfg.FlashBase + int64(j+d.cfg.OpsPerTxn*rng.Intn(classSize))) % d.cfg.RowsPerNode
		key := store.Key(int64(node)*d.cfg.RowsPerNode + off)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		txn.Ops = append(txn.Ops, d.oldOp(rng, node, key))
	}
	return txn
}

func (d *Drift) oldOp(rng *sim.RNG, node netsim.NodeID, key store.Key) Op {
	kind := Read
	var val int64
	if rng.Bool(d.cfg.WritePct) {
		kind = Write
		val = int64(rng.Uint32())
	}
	return Op{Table: YCSBTable, Key: key, Field: 0, Home: node, Kind: kind, Value: val, DependsOn: -1}
}
