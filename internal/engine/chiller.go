package engine

import (
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func init() { Register(chillerEngine{}) }

// chillerEngine is the contention-centric baseline of Figure 18b: outer
// (cold) operations run first under plain 2PL; after the prepare round,
// the hot operations execute in a short inner region whose locks are
// released immediately — before the final commit round — shrinking the
// hold time on contended tuples.
type chillerEngine struct{}

func (chillerEngine) Name() string  { return "chiller" }
func (chillerEngine) Label() string { return "Chiller" }

// ForcedScheme pins 2PL: the inner-region reordering is defined in terms
// of lock hold times, so the configured scheme does not apply.
func (chillerEngine) ForcedScheme() string { return Scheme2PL }

func (chillerEngine) Prepare(ctx *Context) error { return nil }

func (chillerEngine) Execute(ctx *Context, n *Node, txn *workload.Txn, k func(Class, error)) {
	ctx.execChillerK(n, txn, func(err error) { k(ClassCold, err) })
}

// execChillerK runs one transaction with the hot operations reordered
// into a late, early-released inner region.
func (c *Context) execChillerK(n *Node, txn *workload.Txn, k func(error)) {
	// Chiller reorders hot operations behind cold ones; dependencies that
	// cross the regions cannot be reordered, so such transactions run as
	// plain 2PL (the scheme's own fallback).
	if crossTemperatureDeps(txn, func(op workload.Op) bool { return c.IsHotTuple(op) }) {
		c.execColdK(n, txn, k)
		return
	}
	at := c.newAttempt()
	t0 := c.Env.Now()
	c.Env.After(c.Costs.TxnOverhead, func() {
		c.charge(n, metrics.TxnEngine, t0)

		var outer, inner []workload.Op
		for _, op := range txn.Ops {
			if c.IsHotTuple(op) {
				inner = append(inner, op)
			} else {
				outer = append(outer, op)
			}
		}
		c.execOpsK(n, at, outer, func(err error) {
			if err != nil {
				k(err)
				return
			}
			coord := c.coordOf(n)
			parts := at.participants(n.id)

			// The inner region runs once the outer prepare round (if any)
			// voted yes: lock, apply and immediately release the hot
			// tuples, then the final commit round for the outer part.
			finish := func() {
				// Early release of the contended inner locks.
				c.releaseInner(n, at)
				seal := func() {
					t2 := c.Env.Now()
					c.Env.After(c.Costs.LogAppend, func() {
						n.log.AppendCold(at.ts, at.writes)
						at.writes = at.writes[:0]
						n.locks.ReleaseAll(at.lockTxn(n.id))
						c.charge(n, metrics.TxnEngine, t2)
						k(nil)
					})
				}
				if len(parts) > 0 {
					coord.FinishK(parts, true, seal)
				} else {
					seal()
				}
			}
			ii := 0
			var innerStep func()
			failInner := func(lerr error) {
				c.releaseInner(n, at)
				// The abort round's handlers are the attempt's slots: hold
				// it past its rollback messages until they have run.
				at.refs++
				c.abort(n, at)
				fin := func() {
					c.settle(at)
					k(lerr)
				}
				if len(parts) > 0 {
					coord.FinishK(parts, false, fin)
					return
				}
				fin()
			}
			innerStep = func() {
				if ii >= len(inner) {
					finish()
					return
				}
				op := inner[ii]
				ii++
				tl := c.Env.Now()
				if op.Home == n.id {
					c.Env.After(c.Costs.LockOp, func() {
						n.locks.AcquireK(at.innerTxn(n.id), lock.Key(op.LockKey()), lockMode(op), func(lerr error) {
							if lerr != nil {
								c.charge(n, metrics.LockAcquisition, tl)
								failInner(lerr)
								return
							}
							c.Env.After(c.Costs.LocalAccess, func() {
								c.applyOp(at, n.id, op)
								c.charge(n, metrics.LockAcquisition, tl)
								innerStep()
							})
						})
					})
					return
				}
				var lerr error
				c.Net.RPCK(n.id, op.Home, func(done func()) {
					c.Env.After(c.Costs.LockOp, func() {
						c.Nodes[op.Home].locks.AcquireK(at.innerTxn(op.Home), lock.Key(op.LockKey()), lockMode(op), func(err error) {
							lerr = err
							if err != nil {
								done()
								return
							}
							c.Env.After(c.Costs.LocalAccess, func() {
								c.applyOp(at, op.Home, op)
								done()
							})
						})
					})
				}, func() {
					c.charge(n, metrics.RemoteAccess, tl)
					if lerr != nil {
						failInner(lerr)
						return
					}
					innerStep()
				})
			}
			if len(parts) > 0 {
				coord.PrepareK(parts, func(ok bool) {
					if !ok {
						c.abort(n, at)
						k(lock.ErrConflict)
						return
					}
					innerStep()
				})
				return
			}
			innerStep()
		})
	})
}

// releaseInner releases the Chiller inner-region locks (locally at once,
// remotely via one-way messages).
func (c *Context) releaseInner(n *Node, at *attempt) {
	for id, lt := range at.inner {
		if id == n.id {
			c.Nodes[id].locks.ReleaseAll(lt)
			continue
		}
		id, lt := id, lt
		c.Net.Send(n.id, id, func() { c.Nodes[id].locks.ReleaseAll(lt) })
	}
	at.inner = nil
}
