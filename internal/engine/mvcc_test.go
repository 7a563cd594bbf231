package engine

import (
	"errors"
	"testing"

	"repro/internal/lock"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/twopc"
	"repro/internal/workload"
)

// newMVCCTestContext assembles the minimal substrate the MVCC paths need —
// environment, network, nodes with one single-field table — without a full
// core cluster.
func newMVCCTestContext(nodes int) (*Context, *sim.Env) {
	env := sim.NewEnv(1)
	sch, err := LookupScheme(SchemeMVCC)
	if err != nil {
		panic(err)
	}
	ctx := &Context{
		Env:    env,
		Net:    netsim.New(env, nodes, netsim.DefaultLatency()),
		Costs:  DefaultCosts(),
		Scheme: sch,
	}
	for i := 0; i < nodes; i++ {
		n := NewNode(netsim.NodeID(i), env, lock.NoWait, sch)
		n.Store().CreateTable(0, "t", 1)
		ctx.Nodes = append(ctx.Nodes, n)
	}
	sch.Init(ctx)
	return ctx, env
}

// mvccOp builds a single-op transaction on key of node home.
func mvccOp(home netsim.NodeID, key store.Key, kind workload.OpKind, v int64) *workload.Txn {
	return &workload.Txn{Label: "t", Ops: []workload.Op{{
		Table: 0, Key: key, Field: 0, Home: home, Kind: kind, Value: v, DependsOn: -1,
	}}}
}

// TestMVCCSnapshotVisibility: a transaction begun before a concurrent
// commit keeps reading the pre-commit value; a transaction begun after
// sees the new one.
func TestMVCCSnapshotVisibility(t *testing.T) {
	ctx, env := newMVCCTestContext(1)
	n := ctx.Nodes[0]
	n.Store().Table(0).Set(5, 0, 10)

	readOp := workload.Op{Table: 0, Key: 5, Field: 0, Home: 0, Kind: workload.Read, DependsOn: -1}
	var before, after int64
	var commitErr error
	env.Spawn("driver", func(p *sim.Proc) {
		reader := ctx.newMVCCAttempt() // snapshot taken before the write
		commitErr = ctx.execOptimisticTxn(p, n, mvccOp(0, 5, workload.Write, 20), ctx.newMVCCAttempt())
		before = reader.view(n, readOp)
		reader.readDone(ctx)
		late := ctx.newMVCCAttempt()
		after = late.view(n, readOp)
		late.readDone(ctx)
	})
	env.Run()
	if commitErr != nil {
		t.Fatalf("uncontended write aborted: %v", commitErr)
	}
	if before != 10 {
		t.Fatalf("old snapshot read %d, want the pre-commit value 10", before)
	}
	if after != 20 {
		t.Fatalf("new snapshot read %d, want the committed value 20", after)
	}
	if got := n.Store().Table(0).Get(5, 0); got != 20 {
		t.Fatalf("store materialized %d, want 20", got)
	}
}

// TestMVCCWriteWriteConflictAborts: two concurrent writers of the same row
// race first-committer-wins validation; exactly one commits and the loser
// aborts with a lock.ErrAbort-compatible error.
func TestMVCCWriteWriteConflictAborts(t *testing.T) {
	ctx, env := newMVCCTestContext(1)
	n := ctx.Nodes[0]

	var errs [2]error
	for i := 0; i < 2; i++ {
		i := i
		env.Spawn("writer", func(p *sim.Proc) {
			errs[i] = ctx.execOptimisticTxn(p, n, mvccOp(0, 7, workload.Add, 1), ctx.newMVCCAttempt())
		})
	}
	env.Run()
	committed, aborted := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			committed++
		case errors.Is(err, lock.ErrAbort) && errors.Is(err, ErrWriteConflict):
			aborted++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if committed != 1 || aborted != 1 {
		t.Fatalf("committed=%d aborted=%d, want exactly one of each", committed, aborted)
	}
	// First committer wins: exactly one increment landed.
	if got := n.Store().Table(0).Get(7, 0); got != 1 {
		t.Fatalf("row value %d, want 1", got)
	}
	if n.MVCCPinsHeld() != 0 {
		t.Fatalf("%d pins leaked", n.MVCCPinsHeld())
	}
	// White-box re-check of the validation predicate: a write buffered
	// against a stale snapshot must fail first-committer-wins validation.
	stale := ctx.newMVCCAttempt()
	stale.readDone(ctx)
	stale.ts = 1 // pretend it began before everything committed
	stale.buffer(n, workload.Op{Table: 0, Key: 7, Field: 0, Home: 0, Kind: workload.Add, Value: 1, DependsOn: -1}, 1)
	if stale.validateAndPin(n) {
		t.Fatal("validation accepted a write over a row committed after the snapshot")
	}
}

// TestMVCCVersionGCBelowWatermark: with no live snapshots chains prune to
// the newest version on every commit; a live old snapshot retains the
// versions it may read, and retiring it lets the next commit reclaim them.
func TestMVCCVersionGCBelowWatermark(t *testing.T) {
	ctx, env := newMVCCTestContext(1)
	n := ctx.Nodes[0]

	var serial, retained, reclaimed int
	env.Spawn("driver", func(p *sim.Proc) {
		commit := func() {
			if err := ctx.execOptimisticTxn(p, n, mvccOp(0, 3, workload.Add, 1), ctx.newMVCCAttempt()); err != nil {
				t.Errorf("serial commit aborted: %v", err)
			}
		}
		for i := 0; i < 20; i++ {
			commit()
		}
		serial = n.MVCCVersionsStored()

		old := ctx.newMVCCAttempt() // hold the watermark back
		for i := 0; i < 10; i++ {
			commit()
		}
		retained = n.MVCCVersionsStored()
		old.readDone(ctx)
		commit() // first commit past the retired snapshot prunes
		reclaimed = n.MVCCVersionsStored()
	})
	env.Run()
	if serial > 1 {
		t.Fatalf("serial history kept %d versions, want the chain pruned to 1", serial)
	}
	if retained < 10 {
		t.Fatalf("live snapshot retained only %d versions, want >= 10", retained)
	}
	if reclaimed > 1 {
		t.Fatalf("retiring the snapshot left %d versions, want 1", reclaimed)
	}
}

// TestMVCCLostUpdateWindow: a distributed commit draws its stamp before
// the 2PC decision installs the writes. A transaction that begins inside
// that window holds a numerically newer snapshot yet reads the older row
// state; if it then increments the row, stamp-order validation alone would
// let it overwrite the in-flight commit. Sweep the second writer's begin
// time across the whole window (every microsecond) and require that the
// row always ends up equal to the number of committed increments — a lost
// update shows as two commits but one increment.
func TestMVCCLostUpdateWindow(t *testing.T) {
	for offset := sim.Time(0); offset < 40*sim.Microsecond; offset += sim.Microsecond {
		ctx, env := newMVCCTestContext(2)
		coordN, homeN := ctx.Nodes[0], ctx.Nodes[1]
		var errW, errR error
		env.Spawn("distributed-writer", func(p *sim.Proc) {
			errW = ctx.execOptimisticTxn(p, coordN, mvccOp(1, 11, workload.Add, 1), ctx.newMVCCAttempt())
		})
		env.Spawn("local-writer", func(p *sim.Proc) {
			p.Sleep(offset)
			// Read-increment row 11 first, then pad with remote reads so
			// validation lands after the distributed writer's install.
			txn := &workload.Txn{Label: "t", Ops: []workload.Op{
				{Table: 0, Key: 11, Field: 0, Home: 1, Kind: workload.Add, Value: 1, DependsOn: -1},
				{Table: 0, Key: 21, Field: 0, Home: 0, Kind: workload.Read, DependsOn: -1},
				{Table: 0, Key: 22, Field: 0, Home: 0, Kind: workload.Read, DependsOn: -1},
				{Table: 0, Key: 23, Field: 0, Home: 0, Kind: workload.Read, DependsOn: -1},
			}}
			errR = ctx.execOptimisticTxn(p, homeN, txn, ctx.newMVCCAttempt())
		})
		env.Run()
		committed := int64(0)
		for _, err := range []error{errW, errR} {
			if err == nil {
				committed++
			} else if !errors.Is(err, lock.ErrAbort) {
				t.Fatalf("offset %v: unexpected error %v", offset, err)
			}
		}
		if committed == 0 {
			t.Fatalf("offset %v: both writers aborted", offset)
		}
		if got := homeN.Store().Table(0).Get(11, 0); got != committed {
			t.Fatalf("offset %v: %d commits but row holds %d — lost update", offset, committed, got)
		}
	}
}

// TestMVCCDistributedWriteConflict: a remote participant whose validation
// fails vetoes the 2PC round and the transaction aborts everywhere.
func TestMVCCDistributedWriteConflict(t *testing.T) {
	ctx, env := newMVCCTestContext(2)
	local, remote := ctx.Nodes[0], ctx.Nodes[1]

	var raced, winner error
	env.Spawn("distributed", func(p *sim.Proc) {
		// The distributed writer reads its snapshot of the remote row,
		// then a same-node writer on the remote node commits first.
		at := ctx.newMVCCAttempt()
		defer at.readDone(ctx)
		txn := mvccOp(1, 9, workload.Add, 1)
		ctx.execOptimisticOps(p, local, at, txn.Ops)
		winner = ctx.execOptimisticTxn(p, remote, mvccOp(1, 9, workload.Add, 1), ctx.newMVCCAttempt())
		if !at.validateAndPin(local) {
			t.Error("local validation failed with no local writes")
		}
		at.sealed(ctx)
		coord := twopc.NewCoordinator(ctx.Net, local.ID())
		var committed bool
		runK(p, func(fin func()) {
			coord.CommitK(ctx.optimisticParticipants(at, at.remoteNodes(local.ID())), func(ok bool) {
				committed = ok
				fin()
			})
		})
		if committed {
			raced = nil
		} else {
			ctx.abortOptimistic(local, at)
			raced = ErrWriteConflict
		}
	})
	env.Run()
	if winner != nil {
		t.Fatalf("remote writer aborted: %v", winner)
	}
	if raced == nil {
		t.Fatal("distributed writer committed despite losing first-committer-wins remotely")
	}
	if got := remote.Store().Table(0).Get(9, 0); got != 1 {
		t.Fatalf("remote row %d, want 1 (only the winner's write)", got)
	}
	if remote.MVCCPinsHeld() != 0 || local.MVCCPinsHeld() != 0 {
		t.Fatal("pins leaked after distributed abort")
	}
}
