package workload

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
)

// Drifting workloads: YCSB variants whose hot set *moves* during the run.
// They exist to exercise the online adaptive layout — a static offline
// layout is tuned to the distribution at time zero and decays toward the
// no-switch baseline once the hot set shifts, while the adaptive
// controller re-detects and migrates.
//
// A drifting generator derives its current phase from the cluster's
// virtual clock, injected by core.NewCluster through the ClockDriven
// interface. Before the clock is injected (and during the offline
// detection replay, which runs at time zero) the generator is in phase 0
// — exactly the snapshot a static layout is tuned to.

// ClockDriven is implemented by generators whose distribution shifts with
// virtual time. core.NewCluster injects the environment clock right after
// building it, before population and offline detection.
type ClockDriven interface {
	SetClock(now func() sim.Time)
}

// DriftMode selects the drift scenario.
type DriftMode int

const (
	// DriftRotate is the diurnal hot-set rotation: each phase shifts the
	// hot region (two-level mode) or the whole Zipf rank→key mapping
	// (Zipfian mode) by Stride keys within every partition, so yesterday's
	// hot tuples go cold and a formerly cold range heats up.
	DriftRotate DriftMode = iota
	// DriftFlash is the flash crowd: phases >= 1 send FlashPct% of
	// transactions entirely into a small, formerly cold key range
	// (FlashBase..FlashBase+HotPerNode per node); the rest of the traffic
	// keeps the phase-0 distribution.
	DriftFlash
)

// DriftConfig parameterizes a drifting YCSB generator. The embedded
// YCSBConfig supplies the base distribution (two-level hot/cold or
// Zipf(Theta)), partitioning and the operation mix.
type DriftConfig struct {
	YCSBConfig

	Mode DriftMode
	// PhaseLen is the virtual time per phase; the hot set shifts at every
	// multiple of it.
	PhaseLen sim.Time
	// MaxPhase, when > 0, caps the phase index: the workload shifts that
	// many times and then holds (the drift figure uses 1 — a single
	// shift — so the post-shift window is stationary). 0 drifts forever.
	MaxPhase int
	// Stride is the per-phase rotation distance in keys (DriftRotate);
	// 0 defaults to RowsPerNode/2, which alternates between two disjoint
	// regions — a day/night cycle.
	Stride int64
	// FlashBase is the per-partition offset of the flash range
	// (DriftFlash); 0 defaults to RowsPerNode/2, deep in the cold range.
	FlashBase int64
	// FlashPct is the share of transactions the flash crowd captures in
	// phases >= 1 (DriftFlash); 0 defaults to 75.
	FlashPct int
	// OraclePhase, when > 0, pins the generator to that phase regardless
	// of the clock — the per-phase oracle of the drift figure: offline
	// detection then sees the post-shift distribution, giving the layout
	// an adaptive run can at best match.
	OraclePhase int
}

// Drift is the drifting YCSB generator.
type Drift struct {
	cfg   DriftConfig
	clock func() sim.Time
	zipf  zipfPair
}

// NewDrift validates the configuration and returns a generator.
func NewDrift(cfg DriftConfig) *Drift {
	cfg.validate((!cfg.Zipfian && cfg.HotTxnPct > 0) || cfg.Mode == DriftFlash)
	if cfg.PhaseLen <= 0 {
		panic("workload: drift config needs PhaseLen > 0")
	}
	if cfg.Stride == 0 {
		cfg.Stride = cfg.RowsPerNode / 2
	}
	if cfg.FlashBase == 0 {
		cfg.FlashBase = cfg.RowsPerNode / 2
	}
	if cfg.FlashPct == 0 {
		cfg.FlashPct = 75
	}
	return &Drift{cfg: cfg, zipf: cfg.samplers()}
}

// SetClock implements ClockDriven.
func (d *Drift) SetClock(now func() sim.Time) { d.clock = now }

// Config returns the generator's configuration.
func (d *Drift) Config() DriftConfig { return d.cfg }

// Name implements Generator.
func (d *Drift) Name() string {
	mode := "rot"
	if d.cfg.Mode == DriftFlash {
		mode = "flash"
	}
	name := fmt.Sprintf("YCSB-drift-%s", mode)
	if d.cfg.Zipfian {
		name = fmt.Sprintf("%s-zipf%.2f", name, d.cfg.Theta)
	}
	if d.cfg.OraclePhase > 0 {
		name = fmt.Sprintf("%s@p%d", name, d.cfg.OraclePhase)
	}
	return name
}

// Nodes implements Generator.
func (d *Drift) Nodes() int { return d.cfg.NumNodes }

// DeclaresKeySets implements SetDeclarer (see YCSB.DeclaresKeySets).
func (d *Drift) DeclaresKeySets() bool { return true }

// Populate implements Generator: the single lazily-materialized YCSB
// table.
func (d *Drift) Populate(stores []*store.Store) {
	for _, st := range stores {
		st.CreateTable(YCSBTable, "usertable", 1)
	}
}

// Home implements Generator: keys are range-partitioned.
func (d *Drift) Home(t store.TableID, k store.Key) netsim.NodeID {
	return netsim.NodeID(int64(k) / d.cfg.RowsPerNode)
}

// phase returns the generator's current phase index.
func (d *Drift) phase() int {
	if d.cfg.OraclePhase > 0 {
		return d.cfg.OraclePhase
	}
	if d.clock == nil {
		return 0
	}
	p := int(d.clock() / d.cfg.PhaseLen)
	if d.cfg.MaxPhase > 0 && p > d.cfg.MaxPhase {
		p = d.cfg.MaxPhase
	}
	return p
}

// rotation returns the per-partition key offset of phase p.
func (d *Drift) rotation(p int) int64 {
	off := (int64(p) * d.cfg.Stride) % d.cfg.RowsPerNode
	if off < 0 {
		off += d.cfg.RowsPerNode
	}
	return off
}

// Next implements Generator.
func (d *Drift) Next(rng *sim.RNG, self netsim.NodeID) *Txn { return nextFresh(d, rng, self) }

// NextInto implements Generator.
func (d *Drift) NextInto(rng *sim.RNG, self netsim.NodeID, txn *Txn) {
	cfg := &d.cfg
	txn.Label = "YCSB-drift"
	txn.reset(cfg.OpsPerTxn)
	p := d.phase()
	if cfg.Mode == DriftFlash && p >= 1 && rng.Bool(cfg.FlashPct) {
		txn.Label = "YCSB-flash"
		d.flashInto(rng, self, txn)
		return
	}
	var rot int64
	if cfg.Mode == DriftRotate {
		rot = d.rotation(p)
	}
	if cfg.Zipfian {
		// The distribution's head — and with it the detectable hot set —
		// moves to a formerly cold range each phase.
		cfg.zipfInto(d.zipf, rng, self, rot, txn)
		return
	}
	d.twoLevelInto(rng, self, rot, txn)
}

// twoLevelInto is YCSB's two-level hot/cold transaction body with the hot
// region rotated by rot keys into the partition. Cold keys draw uniformly
// over the whole partition (at billion-row partitions the overlap with
// the small hot region is negligible).
func (d *Drift) twoLevelInto(rng *sim.RNG, self netsim.NodeID, rot int64, txn *Txn) {
	cfg := &d.cfg
	hot := rng.Bool(cfg.HotTxnPct)
	dist := rng.Bool(cfg.DistPct)
	for len(txn.Ops) < cfg.OpsPerTxn {
		node := self
		if dist {
			node = netsim.NodeID(rng.Intn(cfg.NumNodes))
		}
		if hot {
			cfg.add(rng, txn, node, (rot+cfg.classDraw(rng, len(txn.Ops)))%cfg.RowsPerNode)
		} else {
			cfg.add(rng, txn, node, rng.Int63n(cfg.RowsPerNode))
		}
	}
}

// flashInto is the flash-crowd transaction body: every operation draws
// from the small flash range, in congruence classes like a two-level hot
// transaction so the flash set is single-pass layoutable.
func (d *Drift) flashInto(rng *sim.RNG, self netsim.NodeID, txn *Txn) {
	cfg := &d.cfg
	dist := rng.Bool(cfg.DistPct)
	for len(txn.Ops) < cfg.OpsPerTxn {
		node := self
		if dist {
			node = netsim.NodeID(rng.Intn(cfg.NumNodes))
		}
		cfg.add(rng, txn, node, (cfg.FlashBase+cfg.classDraw(rng, len(txn.Ops)))%cfg.RowsPerNode)
	}
}

// DefaultDrift returns the drift-figure base configuration: YCSB-A at the
// matrix-standard skew knobs, one hot-set shift (MaxPhase 1) after
// PhaseLen of virtual time.
func DefaultDrift(nodes int, mode DriftMode, phaseLen sim.Time) DriftConfig {
	base := YCSBWorkloadA(nodes)
	base.DistPct = 20
	return DriftConfig{
		YCSBConfig: base,
		Mode:       mode,
		PhaseLen:   phaseLen,
		MaxPhase:   1,
	}
}
