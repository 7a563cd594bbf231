package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// Driver executes externally submitted transactions on a cluster — the
// serving-mode bridge between wall-clock arrivals (TCP requests) and the
// virtual-time engines. Instead of closed-loop workers drawing their own
// transactions (Run), the caller injects transactions with Submit and the
// driver steps the event loop until every injected transaction has
// committed. The same Engine/Scheme registries execute in both modes, so
// the sim predicts what the server serves; the parity test in
// internal/server holds them to identical final database state.
//
// A Driver owns the cluster's simulated clock. All methods must be called
// from one goroutine (the server's engine loop), mirroring the sim's
// single-owner rule.
type Driver struct {
	c   *Cluster
	rng *sim.RNG
}

// NewDriver prepares a cluster for externally driven execution. Counters,
// latency histograms and breakdowns measure from the first submission
// (there is no warmup window in serving mode).
func NewDriver(c *Cluster) *Driver {
	c.ctx.SetMeasuring(true)
	return &Driver{c: c, rng: c.env.Rand().Fork(0x5EC0ED)}
}

// Cluster returns the driven cluster.
func (d *Driver) Cluster() *Cluster { return d.c }

// Inflight returns the number of submitted transactions not yet committed.
func (d *Driver) Inflight() int { return d.c.ctx.SubmitsInflight() }

// Commits returns the number of transactions committed through Submit.
func (d *Driver) Commits() int64 { return d.c.ctx.SubmitsDone() }

// Now returns the cluster's virtual clock.
func (d *Driver) Now() sim.Time { return d.c.env.Now() }

// Submit injects txn as if it arrived at node origin and calls
// done(class, retries) when it commits. Execution happens inside Drain;
// the callback fires from there. done is handed to the engine verbatim —
// server callers pool their callbacks so the per-request path stays
// allocation-free.
func (d *Driver) Submit(origin netsim.NodeID, txn *workload.Txn, done func(cls engine.Class, retries int)) {
	if int(origin) < 0 || int(origin) >= len(d.c.ctx.Nodes) {
		panic(fmt.Sprintf("core: submit origin %d outside cluster of %d nodes", origin, len(d.c.ctx.Nodes)))
	}
	d.c.ctx.Submit(d.c.eng, d.c.ctx.Nodes[origin], txn, d.rng, done)
}

// Drain steps the event loop until every submitted transaction has
// committed. It must not be a plain env.Run(): engines with standing
// timers (calvin's epoch sequencer re-arms every epoch) never let the
// queue go empty, so the loop watches the in-flight count instead.
func (d *Driver) Drain() {
	for d.c.ctx.SubmitsInflight() > 0 {
		if !d.c.env.Step() {
			panic(fmt.Sprintf("core: event queue drained with %d transactions in flight", d.c.ctx.SubmitsInflight()))
		}
	}
}

// Result assembles the serving-mode counters accumulated so far. Duration
// is the virtual time elapsed since the cluster started, so Throughput()
// is simulated-virtual commits/s, not wall-clock commits/s — the server
// reports wall-clock rates itself.
func (d *Driver) Result() *Result {
	c := d.c
	res := &Result{
		Engine:      c.eng.Name(),
		EngineLabel: c.eng.Label(),
		Scheme:      c.ctx.Scheme.Name(),
		Workload:    c.gen.Name(),
		Duration:    c.env.Now(),
		Events:      c.env.Events(),
	}
	res.Migrations, res.Promoted, res.Demoted, res.FenceWaits = c.ctx.AdaptiveCounters()
	for _, n := range c.ctx.Nodes {
		res.Counters.Merge(n.Counters())
		res.Breakdown.Merge(n.Breakdown())
		res.Latency.Merge(n.Latency())
	}
	return res
}

// StateDigest hashes the cluster's full logical database state: every
// node's store partition (tables in id order, rows in key order, fields
// verbatim) plus, when the engine offloaded tuples into the switch, the
// switch register file. Two clusters that executed the same committed
// history — through netsim or through real sockets — must digest
// identically; the sim-vs-server parity test pins exactly that.
func (c *Cluster) StateDigest() string {
	h := sha256.New()
	var scratch [8]byte
	writeU64 := func(v uint64) {
		binary.BigEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	for i, n := range c.ctx.Nodes {
		fmt.Fprintf(h, "node %d\n", i)
		st := n.Store()
		for _, tid := range st.TableIDs() {
			tbl := st.Table(tid)
			fmt.Fprintf(h, "table %d %s\n", tid, tbl.Name())
			tbl.Walk(func(k store.Key, row []int64) {
				writeU64(uint64(k))
				for _, v := range row {
					writeU64(uint64(v))
				}
			})
		}
	}
	if c.ctx.UseSwitch {
		h.Write([]byte("switch\n"))
		c.ctx.Sw.WriteTo(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// LogicalDigest hashes the cluster's database state independent of tuple
// placement: every non-zero field value at its logical (table, key,
// field) coordinates, with tuples currently living in a switch register
// read from the register file instead of the (stale while offloaded)
// owner-node store. Zero values and unmaterialized rows are
// indistinguishable, matching the lazy-materialization convention, so
// the digest is also independent of which rows a run happened to
// materialize. Two clusters that executed the same committed history
// digest equal even if live migration moved their tuples around — this
// is the correctness oracle of the migration tests, where StateDigest
// (which pins physical placement) can legitimately differ.
func (c *Cluster) LogicalDigest() string {
	type entry struct {
		t store.TableID
		k store.Key
		f int
		v int64
	}
	var entries []entry
	onSwitch := make(map[store.GlobalKey]int64)
	if c.ctx.UseSwitch {
		for _, gk := range c.ctx.HotIdx.Keys() {
			s, _ := c.ctx.HotIdx.Lookup(gk)
			onSwitch[gk] = c.ctx.Sw.ReadRegister(s.Stage, s.Array, s.Index)
		}
	}
	for _, n := range c.ctx.Nodes {
		st := n.Store()
		for _, tid := range st.TableIDs() {
			st.Table(tid).Walk(func(k store.Key, row []int64) {
				for f, v := range row {
					// Offloaded fields read from their register; fields
					// beyond the GlobalField encoding range can never be
					// offloaded (operations address fields 0..15).
					if f <= 15 {
						gk := store.GlobalField(tid, f, k)
						if sv, ok := onSwitch[gk]; ok {
							v = sv
							delete(onSwitch, gk)
						}
					}
					if v != 0 {
						entries = append(entries, entry{tid, k, f, v})
					}
				}
			})
		}
	}
	// Switch-resident tuples whose owner-node rows never materialized.
	for gk, v := range onSwitch {
		if v != 0 {
			t, f, k := gk.SplitField()
			entries = append(entries, entry{t, k, f, v})
		}
	}
	// Runs that took different migration paths emit the entries in a
	// different walk order; the digest is over the sorted set.
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.k != b.k {
			return a.k < b.k
		}
		return a.f < b.f
	})
	h := sha256.New()
	var scratch [8]byte
	writeU64 := func(v uint64) {
		binary.BigEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	for _, e := range entries {
		writeU64(uint64(e.t))
		writeU64(uint64(e.k))
		writeU64(uint64(e.f))
		writeU64(uint64(e.v))
	}
	return hex.EncodeToString(h.Sum(nil))
}
