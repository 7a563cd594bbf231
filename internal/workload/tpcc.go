package workload

import (
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
)

// TPC-C tables. Only the tables the NewOrder/Payment mix touches are
// modelled; ORDERS and ORDER-LINE are insert-only and collapse into the
// order table's fresh-key writes.
const (
	TPCCWarehouse store.TableID = 0 // fields: [ytd]
	TPCCDistrict  store.TableID = 1 // fields: [ytd, next_o_id]
	TPCCCustomer  store.TableID = 2 // fields: [balance, ytd_payment, payment_cnt]
	TPCCStock     store.TableID = 3 // fields: [quantity, ytd]
	TPCCItem      store.TableID = 4 // fields: [price] (read-only)
	TPCCOrder     store.TableID = 5 // fields: [c_id, item_count] (insert-only)
)

// District fields.
const (
	DistYTD     = 0
	DistNextOID = 1
)

// TPCCConfig parameterizes the TPC-C generator (Section 7.2): a mix of
// NewOrder and Payment transactions over Warehouses warehouses spread
// evenly across the nodes. Contended columns (warehouse ytd, district ytd
// and next_o_id, hot stock quantities) are the offload candidates; the
// rest (customers, items, order inserts) stays cold, which makes every
// transaction WARM — the workload that exercises P4DB's combined
// 2PC/switch commit.
type TPCCConfig struct {
	NumNodes        int
	Warehouses      int // paper: 8 / 16 / 32
	DistrictsPerWH  int // spec: 10
	ItemsPerWH      int // stock rows per warehouse
	HotItemsPerWH   int // "most ordered items" whose stock goes hot
	CustomersPerDis int
	DistPct         int // probability an item/customer is remote
	PaymentPct      int // Payment share of the mix (rest NewOrder)
}

// DefaultTPCC returns the paper's setup scaled to the simulation.
func DefaultTPCC(nodes, warehouses int) TPCCConfig {
	return TPCCConfig{
		NumNodes:        nodes,
		Warehouses:      warehouses,
		DistrictsPerWH:  10,
		ItemsPerWH:      10000,
		HotItemsPerWH:   10,
		CustomersPerDis: 3000,
		DistPct:         20,
		PaymentPct:      50,
	}
}

// TPCC is the TPC-C benchmark generator (NewOrder + Payment mix).
type TPCC struct {
	cfg TPCCConfig
	// orderSeq hands out fresh order keys per (node); order inserts are
	// uncontended so a node-local sequence suffices (the contended
	// d_next_o_id counter is still incremented for TPC-C semantics).
	orderSeq []int64
}

// NewTPCC validates the configuration and returns a generator.
func NewTPCC(cfg TPCCConfig) *TPCC {
	if cfg.NumNodes <= 0 || cfg.Warehouses < cfg.NumNodes || cfg.Warehouses%cfg.NumNodes != 0 {
		panic("workload: warehouses must be a positive multiple of nodes")
	}
	return &TPCC{cfg: cfg, orderSeq: make([]int64, cfg.NumNodes)}
}

// Name implements Generator.
func (tc *TPCC) Name() string { return "TPC-C" }

// Nodes implements Generator.
func (tc *TPCC) Nodes() int { return tc.cfg.NumNodes }

// Config returns the generator's configuration.
func (tc *TPCC) Config() TPCCConfig { return tc.cfg }

// DeclaresKeySets implements SetDeclarer: real TPC-C computes part of its
// access set from data it reads (customer-by-last-name lookups, the order
// lines behind d_next_o_id), so a deterministic engine cannot trust the
// operation list as an a-priori declaration — it must run a
// reconnaissance pass to discover the read/write set before sequencing.
// The simulation's keys are in fact static, which makes the recon pass
// always confirm; answering false here is what charges its cost.
func (tc *TPCC) DeclaresKeySets() bool { return false }

// whPerNode returns warehouses per node.
func (tc *TPCC) whPerNode() int { return tc.cfg.Warehouses / tc.cfg.NumNodes }

// homeOfWH returns the node owning a warehouse.
func (tc *TPCC) homeOfWH(wh int) netsim.NodeID {
	return netsim.NodeID(wh / tc.whPerNode())
}

// Key construction: districts are wh*DistrictsPerWH+d, stock is
// wh*ItemsPerWH+i, customers are district*CustomersPerDis+c, orders are
// node-sequenced fresh keys.
func (tc *TPCC) districtKey(wh, d int) store.Key {
	return store.Key(wh*tc.cfg.DistrictsPerWH + d)
}
func (tc *TPCC) stockKey(wh, item int) store.Key {
	return store.Key(wh*tc.cfg.ItemsPerWH + item)
}
func (tc *TPCC) customerKey(wh, d, c int) store.Key {
	return store.Key((wh*tc.cfg.DistrictsPerWH+d)*tc.cfg.CustomersPerDis + c)
}

// Populate implements Generator: warehouses, districts and hot stock start
// at zero YTD; stock quantities start high; item prices are implicit
// (read-only zero rows suffice for the contention model, so only schema
// and hot rows are materialized eagerly).
func (tc *TPCC) Populate(stores []*store.Store) {
	for n, st := range stores {
		st.CreateTable(TPCCWarehouse, "warehouse", 1)
		st.CreateTable(TPCCDistrict, "district", 2)
		st.CreateTable(TPCCCustomer, "customer", 3)
		stk := st.CreateTable(TPCCStock, "stock", 2)
		st.CreateTable(TPCCItem, "item", 1)
		st.CreateTable(TPCCOrder, "order", 2)
		for wh := n * tc.whPerNode(); wh < (n+1)*tc.whPerNode(); wh++ {
			for i := 0; i < tc.cfg.ItemsPerWH; i++ {
				stk.Set(tc.stockKey(wh, i), 0, 10000) // quantity
			}
		}
	}
}

// Home implements Generator.
func (tc *TPCC) Home(t store.TableID, k store.Key) netsim.NodeID {
	switch t {
	case TPCCWarehouse:
		return tc.homeOfWH(int(k))
	case TPCCDistrict:
		return tc.homeOfWH(int(k) / tc.cfg.DistrictsPerWH)
	case TPCCCustomer:
		return tc.homeOfWH(int(k) / tc.cfg.CustomersPerDis / tc.cfg.DistrictsPerWH)
	case TPCCStock:
		return tc.homeOfWH(int(k) / tc.cfg.ItemsPerWH)
	case TPCCItem:
		return netsim.NodeID(int(k) % tc.cfg.NumNodes) // replicated read-only catalog
	case TPCCOrder:
		// Order keys come from the per-node insert sequence (self<<40|seq):
		// node-local by construction, so the partitioner decodes the home
		// from the key instead of hashing it.
		return netsim.NodeID(k >> 40)
	}
	panic("workload: unknown TPC-C table")
}

// Next implements Generator.
func (tc *TPCC) Next(rng *sim.RNG, self netsim.NodeID) *Txn { return nextFresh(tc, rng, self) }

// NextInto implements Generator: the NewOrder/Payment mix of Section 7.2.
func (tc *TPCC) NextInto(rng *sim.RNG, self netsim.NodeID, txn *Txn) {
	localWH := int(self)*tc.whPerNode() + rng.Intn(tc.whPerNode())
	if rng.Bool(tc.cfg.PaymentPct) {
		tc.payment(rng, localWH, txn)
		return
	}
	tc.newOrder(rng, self, localWH, txn)
}

// payment updates the warehouse and district YTD totals (both hot) and the
// paying customer's balance (cold; remote with probability DistPct).
func (tc *TPCC) payment(rng *sim.RNG, wh int, txn *Txn) {
	d := rng.Intn(tc.cfg.DistrictsPerWH)
	amount := int64(rng.Intn(5000) + 1)
	custWH := wh
	if rng.Bool(tc.cfg.DistPct) {
		custWH = rng.Intn(tc.cfg.Warehouses)
	}
	c := rng.Intn(tc.cfg.CustomersPerDis)
	custKey := tc.customerKey(custWH, d, c)
	txn.Label = "Payment"
	txn.reset(5)
	txn.Ops = append(txn.Ops,
		Op{Table: TPCCWarehouse, Key: store.Key(wh), Field: 0, Home: tc.homeOfWH(wh),
			Kind: Add, Value: amount, DependsOn: -1},
		Op{Table: TPCCDistrict, Key: tc.districtKey(wh, d), Field: DistYTD, Home: tc.homeOfWH(wh),
			Kind: Add, Value: amount, DependsOn: -1},
		Op{Table: TPCCCustomer, Key: custKey, Field: 0, Home: tc.homeOfWH(custWH),
			Kind: Add, Value: -amount, DependsOn: -1},
		Op{Table: TPCCCustomer, Key: custKey, Field: 1, Home: tc.homeOfWH(custWH),
			Kind: Add, Value: amount, DependsOn: -1},
		Op{Table: TPCCCustomer, Key: custKey, Field: 2, Home: tc.homeOfWH(custWH),
			Kind: Add, Value: 1, DependsOn: -1})
}

// newOrder increments the district's next-order-id (hot), updates stock
// quantities of 5-15 ordered items (hot for popular items; remote
// warehouse with probability DistPct per item), reads item prices, and
// inserts the order (cold fresh-key writes).
func (tc *TPCC) newOrder(rng *sim.RNG, self netsim.NodeID, wh int, txn *Txn) {
	d := rng.Intn(tc.cfg.DistrictsPerWH)
	nItems := rng.Intn(11) + 5
	txn.Label = "NewOrder"
	txn.reset(nItems*2 + 3)
	txn.Ops = append(txn.Ops, Op{
		Table: TPCCDistrict, Key: tc.districtKey(wh, d), Field: DistNextOID,
		Home: tc.homeOfWH(wh), Kind: Add, Value: 1, DependsOn: -1,
	})
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
		if txn.touches(TPCCStock, sk) {
			continue
		}
		qty := int64(rng.Intn(10) + 1)
		// Item price lookup: read-only local catalog row; then the stock
		// quantity decrement (TPC-C refills below 10; modelled as a plain
		// decrement against a large starting quantity).
		txn.Ops = append(txn.Ops, Op{
			Table: TPCCItem, Key: store.Key(item), Home: self,
			Kind: Read, DependsOn: -1,
		}, Op{
			Table: TPCCStock, Key: sk, Field: 0, Home: tc.homeOfWH(itemWH),
			Kind: Add, Value: -qty, DependsOn: -1,
		})
	}
	// Insert the order row: a fresh, uncontended key from the node-local
	// sequence (the hot d_next_o_id counter above provides the TPC-C
	// order-id semantics and its contention).
	tc.orderSeq[self]++
	orderKey := store.Key(int64(self)<<40 | tc.orderSeq[self])
	txn.Ops = append(txn.Ops, Op{
		Table: TPCCOrder, Key: orderKey, Field: 0, Home: self,
		Kind: Write, Value: int64(rng.Intn(tc.cfg.CustomersPerDis)), DependsOn: -1,
	}, Op{
		Table: TPCCOrder, Key: orderKey, Field: 1, Home: self,
		Kind: Write, Value: int64(nItems), DependsOn: -1,
	})
}

// HotCandidates returns the contended columns the paper offloads: every
// warehouse YTD, both district columns, and the hot stock quantities.
func (tc *TPCC) HotCandidates() []store.GlobalKey {
	var out []store.GlobalKey
	for wh := 0; wh < tc.cfg.Warehouses; wh++ {
		out = append(out, store.GlobalField(TPCCWarehouse, 0, store.Key(wh)))
		for d := 0; d < tc.cfg.DistrictsPerWH; d++ {
			out = append(out, store.GlobalField(TPCCDistrict, DistYTD, tc.districtKey(wh, d)))
			out = append(out, store.GlobalField(TPCCDistrict, DistNextOID, tc.districtKey(wh, d)))
		}
		for i := 0; i < tc.cfg.HotItemsPerWH; i++ {
			out = append(out, store.GlobalField(TPCCStock, 0, tc.stockKey(wh, i)))
		}
	}
	return out
}
