package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/txnwire"
	"repro/internal/workload"
)

// The serving front door: an in-process server.New behind a real loopback
// TCP listener, driven closed-loop. Callers of a transaction service wait
// for their reply before sending the next request, and a closed loop is
// also the form that repeats on two shared cores; open-loop and overload
// variants are deliberately absent (their queueing delay measured the host
// scheduler, not this code).
const (
	serveNodes    = 4
	serveWorkload = "ycsb-a"
	serveConns    = 2 // <= nproc of the reference container
	serveWindow   = 8 // outstanding per connection
	servePoolBits = 16
	serveBuilds   = 5 // cold server.New builds timed per run; the last one serves

	serveWarmup        = 100_000 // commits before the first slice
	serveSliceCommits  = 80_000  // most of a second of work
	serveSpanSampling  = 256     // 1-in-N requests become spans in traced slices
	serveQuickSlice    = 2_000
	serveQuickWarmup   = 2_000
	serveQuickPoolBits = 10
)

// pooled is one pre-generated request: the workload layer is out of the
// timed path.
type pooled struct {
	txn    *workload.Txn
	origin netsim.NodeID
}

// driveConfig describes one closed-loop run: every connection keeps
// `window` requests outstanding until `warmup + slices*slice` requests
// have been sent in total; each block of `slice` committed replies after
// the warm-up is one timed slice.
type driveConfig struct {
	pools  [][]pooled // one per connection; lengths are powers of two
	window int
	warmup int64
	slice  int64
	slices int
	tr     *tracer // nil: no spans; else odd slices sample 1-in-256 requests
	// atBoundary, when set, runs on the receiver that completes boundary k
	// (k = 0 ends the warm-up), after its timestamp was taken.
	atBoundary func(k int)
}

type driveResult struct {
	sliceS   []float64 // duration of each slice, seconds
	sent     int64
	commits  int64
	rejected int64
	aborted  int64
	strays   int64               // replies matching no outstanding request (duplicates)
	lat      metrics.LatencyHist // client-observed send->reply, replies past the warm-up
}

// drive runs the closed loop over already-established connections.
//
// Timing hygiene: the send timestamp is taken immediately before
// Client.Send; slice boundaries are detected on the receive side, by the
// receiver whose reply completes the slice; the latency histogram only
// takes replies past the warm-up; and the sender flushes only when its
// window is exhausted (or its budget is spent), never per request.
func drive(cfg driveConfig, conns []net.Conn) (*driveResult, error) {
	total := cfg.warmup + cfg.slice*int64(cfg.slices)
	var tickets, done atomic.Int64
	boundaries := make([]time.Time, cfg.slices+1)
	base := time.Now()

	type connState struct {
		res driveResult
		err error
	}
	states := make([]connState, len(conns))
	var wg sync.WaitGroup
	for ci, nc := range conns {
		wg.Add(1)
		go func(ci int, nc net.Conn) {
			defer wg.Done()
			st := &states[ci]
			cl := loadgen.NewClient(nc)
			pool := cfg.pools[ci]

			// Outstanding requests live in a ring indexed by transaction
			// id: ids are dense per connection and at most `window` are in
			// flight, so a power-of-two ring of twice the window never
			// wraps onto a live entry. An entry holds the send time shifted
			// left once, low bit = "sampled for tracing"; zero = empty.
			ringSize := 2
			for ringSize < 2*cfg.window {
				ringSize <<= 1
			}
			mask := uint64(ringSize - 1)
			ring := make([]atomic.Int64, ringSize)
			credits := make(chan struct{}, cfg.window)
			for i := 0; i < cfg.window; i++ {
				credits <- struct{}{}
			}

			var recvErr error
			recvDone := make(chan struct{})
			go func() {
				defer close(recvDone)
				for {
					rep, err := cl.Recv()
					if err != nil {
						recvErr = err
						return
					}
					now := time.Now()
					slot := ring[rep.Resp.TxnID&mask].Swap(0)
					if slot == 0 {
						st.res.strays++
						continue
					}
					switch rep.Status {
					case txnwire.StatusCommitted:
						st.res.commits++
						sentAt := base.Add(time.Duration(slot >> 1))
						n := done.Add(1)
						if n > cfg.warmup {
							st.res.lat.Record(sim.Time(now.Sub(sentAt)))
						}
						if n >= cfg.warmup && (n-cfg.warmup)%cfg.slice == 0 {
							// Stamped after the count that makes this reply the
							// boundary: a receiver descheduled before counting
							// must not close its slice early.
							k := int((n - cfg.warmup) / cfg.slice)
							boundaries[k] = time.Now()
							if cfg.atBoundary != nil {
								cfg.atBoundary(k)
							}
						}
						if slot&1 != 0 {
							cfg.tr.add("Recv", 2+ci, sentAt, now, uint64(ci)<<32|rep.Resp.TxnID)
						}
					case txnwire.StatusRejected:
						st.res.rejected++
					default:
						st.res.aborted++
					}
					credits <- struct{}{}
				}
			}()

			var sendErr error
		send:
			for i := uint64(0); ; i++ {
				t := tickets.Add(1)
				if t > total {
					break
				}
				select {
				case <-credits:
				default:
					if sendErr = cl.Flush(); sendErr != nil {
						break send
					}
					select {
					case <-credits:
					case <-recvDone:
						break send
					}
				}
				p := pool[i&uint64(len(pool)-1)]
				id := cl.PeekID()
				sampled := cfg.tr != nil && id%serveSpanSampling == 0 &&
					t > cfg.warmup && ((t-cfg.warmup-1)/cfg.slice)%2 == 1
				start := time.Now()
				stamp := int64(start.Sub(base)) << 1
				if sampled {
					stamp |= 1
				}
				ring[id&mask].Store(stamp)
				if _, sendErr = cl.Send(p.txn, p.origin); sendErr != nil {
					break
				}
				st.res.sent++
				if sampled {
					cfg.tr.add("loadgen.Client.Send", 2+ci, start, time.Now(), uint64(ci)<<32|id)
				}
			}
			if sendErr == nil {
				sendErr = cl.CloseWrite()
			}
			if sendErr != nil {
				nc.Close() // unblock the receiver
			}
			<-recvDone
			switch {
			case sendErr != nil:
				st.err = sendErr
			case recvErr != io.EOF:
				st.err = recvErr
			}
		}(ci, nc)
	}
	wg.Wait()

	out := &driveResult{}
	for i := range states {
		if states[i].err != nil {
			return nil, fmt.Errorf("connection %d: %w", i, states[i].err)
		}
		r := &states[i].res
		out.sent += r.sent
		out.commits += r.commits
		out.rejected += r.rejected
		out.aborted += r.aborted
		out.strays += r.strays
		out.lat.Merge(&r.lat)
	}
	for k := 1; k <= cfg.slices; k++ {
		if boundaries[k].IsZero() || boundaries[k-1].IsZero() {
			return out, fmt.Errorf("slice %d never completed (%d of %d commits)", k-1, out.commits, total)
		}
		out.sliceS = append(out.sliceS, boundaries[k].Sub(boundaries[k-1]).Seconds())
	}
	return out, nil
}

func serveConfig(seed uint64) server.Config {
	cc := core.DefaultConfig()
	cc.Engine = "p4db"
	cc.Nodes = serveNodes
	cc.WorkersPerNode = 1
	cc.Seed = seed
	return server.Config{Core: cc, Workload: serveWorkload}
}

// servePools pre-generates each connection's requests from the seed.
func servePools(seed uint64, bits int) [][]pooled {
	gen, err := workload.ByName(serveWorkload, serveNodes)
	if err != nil {
		panic(fmt.Sprintf("benchmark: %v", err))
	}
	pools := make([][]pooled, serveConns)
	for ci := range pools {
		rng := sim.NewRNG(seed ^ uint64(ci+1)*0x9E3779B97F4A7C15)
		pools[ci] = make([]pooled, 1<<bits)
		for j := range pools[ci] {
			origin := netsim.NodeID(rng.Intn(serveNodes))
			pools[ci][j] = pooled{txn: gen.Next(rng, origin), origin: origin}
		}
	}
	return pools
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runServe measures serve_ycsb_closed: five timed cold builds, the last
// of which serves; a warm-up; then R slices of identical work. The
// correctness gate: every request answered exactly once and committed,
// the client's commit count equals the server's, nothing rejected.
func runServe(o options, tr *tracer) (*run, error) {
	R := o.rounds()
	warmup, slice, bits, builds := int64(serveWarmup), int64(serveSliceCommits), servePoolBits, serveBuilds
	if o.quick {
		warmup, slice, bits, builds = serveQuickWarmup, serveQuickSlice, serveQuickPoolBits, 2
	}
	out := &run{traced: make([]bool, R)}
	for k := range out.traced {
		out.traced[k] = tr != nil && k%2 == 1
	}
	endRun := tr.begin("run "+o.workload, 0)
	defer endRun()

	var srv *server.Server
	for b := 0; b < builds; b++ {
		srv = nil
		runtime.GC()
		end := tr.begin("server.New", 0)
		t0 := time.Now()
		s, err := server.New(serveConfig(o.seed + uint64(b)))
		out.setup = append(out.setup, time.Since(t0).Seconds())
		end()
		if err != nil {
			return nil, err
		}
		srv = s
	}
	pools := servePools(o.seed, bits)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		srv.Shutdown()
		return <-serveErr
	}
	defer stop()

	conns := make([]net.Conn, serveConns)
	for i := range conns {
		if conns[i], err = net.Dial("tcp", ln.Addr().String()); err != nil {
			return nil, err
		}
		defer conns[i].Close()
	}

	var m0, m1 runtime.MemStats
	var cpu0, cpu1 time.Duration
	cfg := driveConfig{
		pools: pools, window: serveWindow,
		warmup: warmup, slice: slice, slices: R, tr: tr,
		atBoundary: func(k int) {
			switch k {
			case 0:
				runtime.ReadMemStats(&m0)
				cpu0 = processCPU()
			case R:
				cpu1 = processCPU()
				runtime.ReadMemStats(&m1)
			}
		},
	}
	endDrive := tr.begin("closed loop", 0)
	dr, err := drive(cfg, conns)
	endDrive()
	if err != nil {
		return nil, err
	}

	// mem_mb: live heap with the serving cluster still up, the request
	// pools (the benchmark's own memory) released.
	pools, cfg.pools = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.memMB = float64(ms.HeapAlloc) / (1 << 20)

	if err := stop(); err != nil {
		return nil, err
	}
	st := srv.Stats()
	res := srv.Result()

	for _, s := range dr.sliceS {
		out.rates = append(out.rates, float64(slice)/s)
		out.busyS += s
	}
	out.commits = slice * int64(R)
	out.lat = dr.lat
	out.mallocs = float64(m1.Mallocs - m0.Mallocs)
	out.cpuS = (cpu1 - cpu0).Seconds()
	out.retries = st.Retries

	// Engine-side counters cover the whole served stream, warm-up
	// included; per-commit ratios divide by the whole stream's commits.
	out.streamCommits = res.Counters.Committed()
	out.events = float64(res.Events)
	out.vtime = res.Duration
	out.vlat = res.Latency
	out.counters = res.Counters
	out.breakdown = res.Breakdown
	out.switchTxns = srv.Cluster().Switch().Stats.Txns
	out.addClusterCounters(srv.Cluster(), 1)
	out.addWAL(srv.Cluster())

	out.attempted = dr.sent
	out.failed = dr.sent - dr.commits + dr.strays
	problem := func(format string, args ...any) {
		out.problems = append(out.problems, fmt.Sprintf(format, args...))
	}
	if dr.commits != dr.sent {
		problem("%d sent, %d committed replies (%d rejected, %d aborted)", dr.sent, dr.commits, dr.rejected, dr.aborted)
	}
	if dr.strays != 0 {
		problem("%d replies matched no outstanding request", dr.strays)
	}
	if st.Commits != dr.commits {
		problem("client saw %d commits, server counted %d", dr.commits, st.Commits)
	}
	if st.Rejected != 0 {
		problem("server rejected %d requests", st.Rejected)
	}
	return out, nil
}
