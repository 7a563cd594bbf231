package core

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/netsim"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/store"
)

// The concurrency-control vocabulary lives in internal/engine with the
// strategies that use it; core re-exports it so cluster configuration
// stays a single import.
type (
	// CostModel holds the per-operation CPU costs of a database node.
	CostModel = engine.CostModel
	// Node is one database server: its store partition, lock table, WAL
	// and measurement state.
	Node = engine.Node
)

// DefaultCosts returns the calibrated node cost model.
func DefaultCosts() CostModel { return engine.DefaultCosts() }

// Config describes one cluster under test.
type Config struct {
	// Engine names the execution strategy, resolved in the engine
	// registry: "p4db", "noswitch", "lmswitch", "chiller" or "occ" (see
	// engine.Names for the live list). New strategies become selectable
	// here by registering themselves — no core change required.
	Engine         string
	Nodes          int
	WorkersPerNode int
	Policy         lock.Policy
	// Scheme names the host DBMS concurrency-control family, resolved in
	// the scheme registry: "2pl" (the paper's main setup), "occ"
	// (Appendix A.4) or "mvcc" (see engine.SchemeNames for the live
	// list); empty selects 2PL. Unknown names are a hard error at cluster
	// build. Engines that hardwire their scheme (LM-Switch and Chiller
	// are inherently lock-based, the "occ" ablation engine pins OCC)
	// override this setting; Result.Scheme reports what actually ran.
	Scheme  string
	Latency netsim.Latency
	Switch  pisa.Config
	Costs   CostModel
	// CostOverrides replaces the cost model per engine and/or scheme,
	// consulted at cluster build in precedence order "engine/scheme",
	// engine ("chiller" or "chiller/*"), scheme ("*/mvcc"). Strategies
	// that model different hardware — an RDMA-class baseline, a slower
	// validation path — get their own costs without forking the whole
	// Config. Keys naming nothing registered are a hard error at cluster
	// build, as is a bare name that is both an engine and a scheme
	// ("occ") — spell those as "occ/*" or "*/occ".
	CostOverrides map[string]CostModel

	// BatchSize bounds the epoch batches of engines that sequence
	// transactions before execution (the calvin deterministic sequencer
	// dispatches a batch when it holds this many transactions or when the
	// epoch timer fires, whichever comes first); 0 keeps the engine's
	// default. Engines without a sequencing stage ignore it.
	BatchSize int

	// RandomLayout replaces the declustered (max-cut) layout with the
	// random worst-case layout of the Figure 16 experiment.
	RandomLayout bool
	// HotSetCap bounds how many hot tuples are offloaded; 0 means the
	// switch capacity. Hot tuples beyond the cap stay on their nodes and
	// execute as cold transactions (Figure 17).
	HotSetCap int
	// SampleTxns is the size of the offline detection sample.
	SampleTxns int
	// NoDeliveryBatching disables the network's per-destination delivery
	// coalescing (netsim.Network.SetCoalescing(false)): every one-way
	// message gets its own scheduled event. Simulated results are
	// identical either way — the determinism tests run seeded sweeps both
	// ways to prove it — so this knob exists for those tests and for
	// isolating batching in profiles, not for experiments.
	NoDeliveryBatching bool
	// ExplicitHot bypasses frequency-based detection and offloads exactly
	// these tuples (truncated to the capacity / HotSetCap bound, most
	// frequently sampled first). It is used when the hot-set is known a
	// priori but too large for sampling to resolve individual keys, as in
	// the Figure 17 capacity experiment.
	ExplicitHot []store.GlobalKey

	// Adaptive turns the offline layout into a live one: the engine
	// records per-node sliding-window access statistics, re-runs hot-set
	// detection every AdaptInterval of virtual time, and migrates tuples
	// between switch registers and owner nodes under an epoch fence (see
	// engine.Context.StartAdaptive). Only engines that offload to the
	// switch (P4DB) adapt; for all others the flag is a no-op. Off by
	// default — the static path schedules no extra events and its golden
	// digest is bit-identical.
	Adaptive bool
	// AdaptInterval is the virtual-time period between re-detections; 0
	// selects DefaultAdaptInterval.
	AdaptInterval sim.Time

	// Durable wires the write-ahead log into every commit path: switch
	// intents are retained before the packet leaves the node (and
	// back-filled with the GID from the response), and cold transactions
	// append their redo record at the 2PC commit decision. Every commit
	// path already pays its log-append latency unconditionally, so Durable
	// gates only whether record DATA is retained: seeded schedules — and
	// therefore the golden digests — are bit-identical with Durable on or
	// off, and the off path stays allocation-free. Off by default.
	Durable bool
	// Fault schedules one crash during the run; recovery rebuilds the lost
	// state from the WALs in-simulation and the run continues. Requires
	// Durable (there is nothing to recover from otherwise) and is rejected
	// alongside Adaptive (a migrating layout invalidates the offload
	// baseline recovery replays from). See FaultPlan.
	Fault *FaultPlan
	// CaptureState fills Result.StateDigest with the cluster's full
	// logical state digest after the run — the oracle the fault matrix
	// uses to assert recovered state equals the no-fault run bit for bit.
	CaptureState bool

	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed uint64
}

// DefaultAdaptInterval is the re-detection period when Config.Adaptive is
// set without an explicit AdaptInterval: long enough for the sliding
// window to accumulate a resolvable frequency tally (and for the fold's
// cache footprint to stay amortized into the noise), short enough to
// react within one figure measurement window.
const DefaultAdaptInterval = 100 * sim.Microsecond

// costsFor resolves the effective cost model for the resolved engine and
// scheme pair, most specific override first. Every key is validated
// against the registries so a typo fails loudly at cluster build instead
// of silently running the defaults.
func (cfg Config) costsFor(eng, scheme string) CostModel {
	for key := range cfg.CostOverrides {
		if err := validateOverrideKey(key); err != nil {
			panic(fmt.Sprintf("core: CostOverrides key %q: %v", key, err))
		}
	}
	for _, key := range []string{eng + "/" + scheme, eng + "/*", eng, "*/" + scheme, scheme} {
		if cm, ok := cfg.CostOverrides[key]; ok {
			return cm
		}
	}
	return cfg.Costs
}

// hotSetRows is the number of hot tuples the build may offload: the switch
// capacity, lowered by HotSetCap if set.
func (cfg Config) hotSetRows() int {
	rows := cfg.Switch.Capacity()
	if cfg.HotSetCap > 0 && cfg.HotSetCap < rows {
		rows = cfg.HotSetCap
	}
	return rows
}

// validateOverrideKey checks that key names a registered engine
// ("chiller", "chiller/*"), a registered scheme ("*/mvcc"), or an
// "engine/scheme" pair — and is unambiguous: a bare name registered as
// both an engine and a scheme must be qualified.
func validateOverrideKey(key string) error {
	engines, schemes := engine.Names(), engine.SchemeNames()
	if e, s, ok := strings.Cut(key, "/"); ok {
		if _, err := engine.Lookup(e); err != nil && e != "*" {
			return fmt.Errorf("unknown engine %q (engines: %v)", e, engines)
		}
		if _, err := engine.LookupScheme(s); err != nil && s != "*" {
			return fmt.Errorf("unknown scheme %q (schemes: %v)", s, schemes)
		}
		if e == "*" && s == "*" {
			return fmt.Errorf("names everything; set Config.Costs instead")
		}
		return nil
	}
	_, eerr := engine.Lookup(key)
	_, serr := engine.LookupScheme(key)
	switch {
	case eerr == nil && serr == nil:
		return fmt.Errorf("names both an engine and a scheme; use %q or %q", key+"/*", "*/"+key)
	case eerr == nil || serr == nil:
		return nil
	default:
		return fmt.Errorf("names no registered engine, scheme or engine/scheme pair (engines: %v, schemes: %v)", engines, schemes)
	}
}

// DefaultConfig returns the paper's standard setup: P4DB on 8 nodes,
// 2PL with NO_WAIT, the default switch and latency models.
func DefaultConfig() Config {
	return Config{
		Engine:         "p4db",
		Scheme:         engine.Scheme2PL,
		Nodes:          8,
		WorkersPerNode: 20,
		Policy:         lock.NoWait,
		Latency:        netsim.DefaultLatency(),
		Switch:         pisa.DefaultConfig(),
		Costs:          DefaultCosts(),
		SampleTxns:     100000,
		Seed:           42,
	}
}
