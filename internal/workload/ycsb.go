package workload

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
)

// YCSBTable is the single table of the YCSB benchmark.
const YCSBTable store.TableID = 0

// YCSBConfig parameterizes the YCSB generator following Section 7.2: a
// single range-partitioned table, transactions of OpsPerTxn independent
// read/write operations, and a per-node hot-set that receives HotAccessPct
// of all accesses.
type YCSBConfig struct {
	NumNodes    int
	RowsPerNode int64 // logical partition size (rows materialize lazily)
	HotPerNode  int   // hot keys per node (paper: 50)
	WritePct    int   // write ratio within a txn: A=50, B=5, C=0
	HotTxnPct   int   // fraction of transactions on the hot-set (paper: 75%)
	DistPct     int   // fraction of distributed transactions
	OpsPerTxn   int   // operations per transaction (paper: 8)

	// Zipfian switches key selection from the paper's two-level hot/cold
	// split to a smooth Zipf(Theta) distribution over all rows — the
	// contention-scaling axis the hardware testbed could not sweep.
	// HotTxnPct is ignored in this mode (skew is continuous, not binary);
	// DistPct still selects distributed transactions.
	Zipfian bool
	Theta   float64
}

// YCSBWorkloadA..C return the paper's workload mixes (update-heavy 50/50,
// read-heavy 95/5, read-only 100/0) at the defaults of Section 7.2.
func YCSBWorkloadA(nodes int) YCSBConfig { return ycsbBase(nodes, 50) }
func YCSBWorkloadB(nodes int) YCSBConfig { return ycsbBase(nodes, 5) }
func YCSBWorkloadC(nodes int) YCSBConfig { return ycsbBase(nodes, 0) }

func ycsbBase(nodes, writePct int) YCSBConfig {
	return YCSBConfig{
		NumNodes:    nodes,
		RowsPerNode: 1 << 27, // 1B rows over 8 nodes, lazily materialized
		HotPerNode:  50,
		WritePct:    writePct,
		HotTxnPct:   75,
		DistPct:     20,
		OpsPerTxn:   8,
	}
}

// YCSB is the Yahoo! Cloud Serving Benchmark generator.
type YCSB struct {
	cfg  YCSBConfig
	zipf zipfPair
}

// zipfPair holds the Zipfian-mode samplers, built once: global ranks for
// distributed transactions, per-partition ranks for local ones.
type zipfPair struct{ global, local *Zipf }

func (cfg *YCSBConfig) samplers() zipfPair {
	if !cfg.Zipfian {
		return zipfPair{}
	}
	return zipfPair{NewZipf(cfg.RowsPerNode*int64(cfg.NumNodes), cfg.Theta), NewZipf(cfg.RowsPerNode, cfg.Theta)}
}

// validate panics on a configuration that cannot generate. classDraws says
// that some transactions draw every key from the congruence classes of a
// HotPerNode-sized range (see classDraw): operation j's class is empty
// once j reaches HotPerNode.
func (cfg *YCSBConfig) validate(classDraws bool) {
	if cfg.NumNodes <= 0 || cfg.RowsPerNode <= 0 || cfg.OpsPerTxn <= 0 {
		panic("workload: invalid YCSB config")
	}
	if int64(cfg.HotPerNode) > cfg.RowsPerNode {
		panic("workload: hot set larger than partition")
	}
	if classDraws && cfg.HotPerNode < cfg.OpsPerTxn {
		panic(fmt.Sprintf("workload: HotPerNode %d < OpsPerTxn %d: operation %d of a hot transaction has no key to draw",
			cfg.HotPerNode, cfg.OpsPerTxn, cfg.HotPerNode))
	}
}

// NewYCSB validates the configuration and returns a generator.
func NewYCSB(cfg YCSBConfig) *YCSB {
	cfg.validate(!cfg.Zipfian && cfg.HotTxnPct > 0)
	if !cfg.Zipfian && cfg.HotTxnPct < 100 && int64(cfg.HotPerNode) == cfg.RowsPerNode {
		panic(fmt.Sprintf("workload: HotPerNode == RowsPerNode (%d) with HotTxnPct %d: cold transactions have no key to draw",
			cfg.HotPerNode, cfg.HotTxnPct))
	}
	return &YCSB{cfg: cfg, zipf: cfg.samplers()}
}

// Name implements Generator.
func (y *YCSB) Name() string {
	var base string
	switch y.cfg.WritePct {
	case 50:
		base = "YCSB-A"
	case 5:
		base = "YCSB-B"
	case 0:
		base = "YCSB-C"
	default:
		base = fmt.Sprintf("YCSB(w=%d%%)", y.cfg.WritePct)
	}
	if y.cfg.Zipfian {
		return fmt.Sprintf("%s-zipf%.2f", base, y.cfg.Theta)
	}
	return base
}

// Nodes implements Generator.
func (y *YCSB) Nodes() int { return y.cfg.NumNodes }

// Config returns the generator's configuration.
func (y *YCSB) Config() YCSBConfig { return y.cfg }

// DeclaresKeySets implements SetDeclarer: YCSB operations draw independent
// uniform keys, so the generated operation list is the exact read/write
// set — deterministic engines can sequence the transaction as-is.
func (y *YCSB) DeclaresKeySets() bool { return true }

// Populate implements Generator. YCSB rows default to zero values and
// materialize lazily, so only the table is created.
func (y *YCSB) Populate(stores []*store.Store) {
	for _, st := range stores {
		st.CreateTable(YCSBTable, "usertable", 1)
	}
}

// Home implements Generator: keys are range-partitioned.
func (y *YCSB) Home(t store.TableID, k store.Key) netsim.NodeID {
	return netsim.NodeID(int64(k) / y.cfg.RowsPerNode)
}

// hotKey returns hot tuple i of a node (the first HotPerNode keys of its
// range).
func (y *YCSB) hotKey(node netsim.NodeID, i int64) store.Key {
	return store.Key(int64(node)*y.cfg.RowsPerNode + i)
}

// Next implements Generator.
func (y *YCSB) Next(rng *sim.RNG, self netsim.NodeID) *Txn { return nextFresh(y, rng, self) }

// NextInto implements Generator. A transaction is either entirely hot or
// entirely cold (HotTxnPct), and either local or distributed (DistPct);
// distributed transactions draw each operation's node uniformly. Cold keys
// are uniform over the partition behind the hot range.
func (y *YCSB) NextInto(rng *sim.RNG, self netsim.NodeID, txn *Txn) {
	cfg := &y.cfg
	txn.Label = "YCSB"
	txn.reset(cfg.OpsPerTxn)
	if cfg.Zipfian {
		cfg.zipfInto(y.zipf, rng, self, 0, txn)
		return
	}
	hot := rng.Bool(cfg.HotTxnPct)
	dist := rng.Bool(cfg.DistPct)
	for len(txn.Ops) < cfg.OpsPerTxn {
		node := self
		if dist {
			node = netsim.NodeID(rng.Intn(cfg.NumNodes))
		}
		if hot {
			cfg.add(rng, txn, node, cfg.classDraw(rng, len(txn.Ops)))
		} else {
			cfg.add(rng, txn, node, int64(cfg.HotPerNode)+rng.Int63n(cfg.RowsPerNode-int64(cfg.HotPerNode)))
		}
	}
}

// classDraw draws operation j's offset within a HotPerNode-sized range
// from congruence class j mod OpsPerTxn, so the operations of one hot
// transaction never share a class. This mirrors the paper's YCSB switch
// program, in which every hot transaction executes in a single pipeline
// pass: a conflict-free register assignment exists (one set of register
// arrays per class) and the declustering algorithm finds it from the
// co-access pattern alone.
func (cfg *YCSBConfig) classDraw(rng *sim.RNG, j int) int64 {
	classSize := (cfg.HotPerNode - j + cfg.OpsPerTxn - 1) / cfg.OpsPerTxn
	return int64(j + cfg.OpsPerTxn*rng.Intn(classSize))
}

// add appends an operation on the key at partition offset off of node,
// drawing its read/write kind and value — unless the transaction already
// touches that key, in which case the caller draws again.
func (cfg *YCSBConfig) add(rng *sim.RNG, txn *Txn, node netsim.NodeID, off int64) {
	key := store.Key(int64(node)*cfg.RowsPerNode + off)
	if txn.touches(YCSBTable, key) {
		return
	}
	op := Op{Table: YCSBTable, Key: key, Home: node, Kind: Read, DependsOn: -1}
	if rng.Bool(cfg.WritePct) {
		op.Kind, op.Value = Write, int64(rng.Uint32())
	}
	txn.Ops = append(txn.Ops, op)
}

// zipfInto is the Zipfian-mode transaction body: every operation's key is
// drawn from Zipf(Theta). Distributed transactions draw a global rank —
// rank r lives on node r mod NumNodes at partition offset r div NumNodes,
// so the globally hottest tuples round-robin across the cluster and land
// on the low per-node offsets that the two-level mode also uses as its hot
// region (hot-set detection and HotCandidates need no special case). Local
// transactions draw a per-partition rank on the originating node, giving
// every partition the same internal skew. rot rotates the rank→key mapping
// within every partition: 0 for YCSB, the phase's rotation when drifting.
func (cfg *YCSBConfig) zipfInto(z zipfPair, rng *sim.RNG, self netsim.NodeID, rot int64, txn *Txn) {
	dist := rng.Bool(cfg.DistPct)
	nodes := int64(cfg.NumNodes)
	for len(txn.Ops) < cfg.OpsPerTxn {
		if dist {
			r := z.global.Next(rng)
			cfg.add(rng, txn, netsim.NodeID(r%nodes), (r/nodes+rot)%cfg.RowsPerNode)
		} else {
			cfg.add(rng, txn, self, (z.local.Next(rng)+rot)%cfg.RowsPerNode)
		}
	}
}

// HotCandidates enumerates every hot tuple the generator will ever emit,
// in deterministic order (used to bound detection samples in tests).
func (y *YCSB) HotCandidates() []store.GlobalKey {
	out := make([]store.GlobalKey, 0, y.cfg.NumNodes*y.cfg.HotPerNode)
	for n := 0; n < y.cfg.NumNodes; n++ {
		for i := 0; i < y.cfg.HotPerNode; i++ {
			out = append(out, store.GlobalField(YCSBTable, 0, y.hotKey(netsim.NodeID(n), int64(i))))
		}
	}
	return out
}
