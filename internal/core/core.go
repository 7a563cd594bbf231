// Package core builds and runs the cluster under test: it wires together
// every substrate — the discrete-event simulator, the rack network, the
// PISA switch model, per-node stores, lock tables and write-ahead logs —
// performs the strategy-independent offline preparation step (hot-set
// detection, declustered layout computation) and runs closed-loop workers
// that generate and execute transactions.
//
// The execution strategies themselves — P4DB's hot/warm/cold paths and
// the evaluation baselines (No-Switch, LM-Switch, Chiller, OCC) — live in
// internal/engine behind the engine.Engine interface. A cluster selects
// its strategy by name through Config.Engine; registering a new engine
// makes it selectable everywhere (benchmarks, CLIs, examples) without
// touching this package.
package core
