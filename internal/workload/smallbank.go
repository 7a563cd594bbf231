package workload

import (
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
)

// SmallBank tables.
const (
	SBChecking store.TableID = 0
	SBSavings  store.TableID = 1
)

// SmallBankConfig parameterizes the SmallBank generator (Section 7.2): a
// banking workload over checking/savings accounts with a ~15% read ratio,
// read-dependent writes, and simple balance constraints. Hot customer
// accounts per node receive HotTxnPct of all transactions.
type SmallBankConfig struct {
	NumNodes        int
	AccountsPerNode int   // paper: 1M total accounts
	HotPerNode      int   // paper: 5 / 10 / 15
	HotTxnPct       int   // paper: 90
	DistPct         int   // fraction of distributed transactions
	InitialBalance  int64 // starting balance per account and table
}

// DefaultSmallBank returns the paper's setup scaled to the simulation.
func DefaultSmallBank(nodes, hotPerNode int) SmallBankConfig {
	return SmallBankConfig{
		NumNodes:        nodes,
		AccountsPerNode: 20000,
		HotPerNode:      hotPerNode,
		HotTxnPct:       90,
		DistPct:         20,
		InitialBalance:  1_000_000,
	}
}

// SmallBank is the SmallBank benchmark generator with the Payment
// transaction extension the paper adds.
type SmallBank struct {
	cfg SmallBankConfig
}

// NewSmallBank validates the configuration and returns a generator.
func NewSmallBank(cfg SmallBankConfig) *SmallBank {
	if cfg.NumNodes <= 0 || cfg.AccountsPerNode <= 0 {
		panic("workload: invalid SmallBank config")
	}
	if cfg.HotPerNode > cfg.AccountsPerNode {
		panic("workload: hot set larger than partition")
	}
	return &SmallBank{cfg: cfg}
}

// Name implements Generator.
func (sb *SmallBank) Name() string { return "SmallBank" }

// Nodes implements Generator.
func (sb *SmallBank) Nodes() int { return sb.cfg.NumNodes }

// Config returns the generator's configuration.
func (sb *SmallBank) Config() SmallBankConfig { return sb.cfg }

// DeclaresKeySets implements SetDeclarer: every SmallBank transaction
// names its one or two accounts up front (the conditional logic only
// affects values, never which rows are touched), so the operation list is
// the exact read/write set.
func (sb *SmallBank) DeclaresKeySets() bool { return true }

// Populate implements Generator: every account starts with the same
// balance in both tables.
func (sb *SmallBank) Populate(stores []*store.Store) {
	for n, st := range stores {
		ck := st.CreateTable(SBChecking, "checking", 1)
		sv := st.CreateTable(SBSavings, "savings", 1)
		base := int64(n) * int64(sb.cfg.AccountsPerNode)
		for i := int64(0); i < int64(sb.cfg.AccountsPerNode); i++ {
			ck.Set(store.Key(base+i), 0, sb.cfg.InitialBalance)
			sv.Set(store.Key(base+i), 0, sb.cfg.InitialBalance)
		}
	}
}

// Home implements Generator: accounts are range-partitioned.
func (sb *SmallBank) Home(t store.TableID, k store.Key) netsim.NodeID {
	return netsim.NodeID(int64(k) / int64(sb.cfg.AccountsPerNode))
}

// account draws an account on the given node; hot selects from the node's
// hot customers.
func (sb *SmallBank) account(rng *sim.RNG, node netsim.NodeID, hot bool) store.Key {
	base := int64(node) * int64(sb.cfg.AccountsPerNode)
	if hot {
		return store.Key(base + int64(rng.Intn(sb.cfg.HotPerNode)))
	}
	off := int64(sb.cfg.HotPerNode) + rng.Int63n(int64(sb.cfg.AccountsPerNode-sb.cfg.HotPerNode))
	return store.Key(base + off)
}

// Next implements Generator.
func (sb *SmallBank) Next(rng *sim.RNG, self netsim.NodeID) *Txn { return nextFresh(sb, rng, self) }

// NextInto implements Generator. The mix gives Balance (the only
// read-only type) 15% — the paper's fixed read ratio — and splits the
// remainder evenly over the five update types.
func (sb *SmallBank) NextInto(rng *sim.RNG, self netsim.NodeID, txn *Txn) {
	txn.reset(3)
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
		txn.Label = "Balance"
		txn.Ops = append(txn.Ops,
			Op{Table: SBChecking, Key: a, Home: homeA, Kind: Read, DependsOn: -1},
			Op{Table: SBSavings, Key: a, Home: homeA, Kind: Read, DependsOn: -1})
	default:
		switch rng.Intn(5) {
		case 0:
			txn.Label = "DepositChecking"
			txn.Ops = append(txn.Ops,
				Op{Table: SBChecking, Key: a, Home: homeA, Kind: Add, Value: amount, DependsOn: -1})
		case 1: // withdrawal with non-negative constraint
			txn.Label = "TransactSavings"
			txn.Ops = append(txn.Ops,
				Op{Table: SBSavings, Key: a, Home: homeA, Kind: CondAddGE0, Value: -amount, DependsOn: -1})
		case 2: // move all funds of A into B's checking
			txn.Label = "Amalgamate"
			txn.Ops = append(txn.Ops,
				Op{Table: SBSavings, Key: a, Home: homeA, Kind: ReadClear, DependsOn: -1},
				Op{Table: SBChecking, Key: a, Home: homeA, Kind: ReadClear, DependsOn: 0},
				Op{Table: SBChecking, Key: b, Home: homeB, Kind: AddAcc, DependsOn: 1})
		case 3: // read savings, conditionally debit checking
			txn.Label = "WriteCheck"
			txn.Ops = append(txn.Ops,
				Op{Table: SBSavings, Key: a, Home: homeA, Kind: Read, DependsOn: -1},
				Op{Table: SBChecking, Key: a, Home: homeA, Kind: CondAddGE0, Value: -amount, DependsOn: 0})
		default: // debit A, credit B only if the debit held
			txn.Label = "SendPayment"
			txn.Ops = append(txn.Ops,
				Op{Table: SBChecking, Key: a, Home: homeA, Kind: CondAddGE0, Value: -amount, DependsOn: -1},
				Op{Table: SBChecking, Key: b, Home: homeB, Kind: AddIfOK, Value: amount, DependsOn: 0})
		}
	}
}
