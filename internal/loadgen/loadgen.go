package loadgen

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/txnwire"
	"repro/internal/workload"
)

// Config parameterizes one load-generation run.
type Config struct {
	// Addrs lists the txnwire servers; connections round-robin across
	// them and each server's commits aggregate into one report (the
	// servers are independent shared-nothing shards).
	Addrs []string
	// Workload names a registered workload (workload.ByName).
	Workload string
	// Theta switches a YCSB workload to Zipfian key selection at that
	// skew exponent (workload.ByNameTheta); must match the server's.
	Theta float64
	// Nodes is the node count of each target server; generated
	// transactions partition across it and pick a random origin in it.
	Nodes int
	// Conns is the total number of client connections (spread over
	// Addrs). Default 1.
	Conns int
	// Rate is the total open-loop submission rate in txn/s across all
	// connections; 0 runs closed-loop (each connection keeps Window
	// transactions outstanding).
	Rate float64
	// Window bounds outstanding transactions per connection (default
	// 256). The open-loop clock does not stall while the window has
	// room; when the server falls behind the window backpressures the
	// sender and queueing delay shows up in the percentiles.
	Window int
	// Duration is how long to submit load. Default 2s.
	Duration time.Duration
	// Seed makes transaction streams reproducible.
	Seed uint64
}

// Report is the outcome of a run, aggregated across connections.
type Report struct {
	Workload   string  `json:"workload"`
	Servers    int     `json:"servers"`
	Conns      int     `json:"conns"`
	TargetRate float64 `json:"target_rate,omitempty"`
	Sent       int64   `json:"sent"`
	Commits    int64   `json:"commits"`
	Rejected   int64   `json:"rejected"`
	ElapsedSec float64 `json:"elapsed_sec"`
	Throughput float64 `json:"commits_per_sec"`
	MeanLatUs  float64 `json:"mean_lat_us"`
	P50LatUs   float64 `json:"p50_lat_us"`
	P95LatUs   float64 `json:"p95_lat_us"`
	P99LatUs   float64 `json:"p99_lat_us"`
	MaxLatUs   float64 `json:"max_lat_us"`
}

// String renders the report as one human-readable line.
func (r *Report) String() string {
	return fmt.Sprintf("%s x%d servers: %.0f commits/s (%d commits in %.2fs, %d conns)  lat µs p50=%.0f p95=%.0f p99=%.0f max=%.0f",
		r.Workload, r.Servers, r.Throughput, r.Commits, r.ElapsedSec, r.Conns,
		r.P50LatUs, r.P95LatUs, r.P99LatUs, r.MaxLatUs)
}

// connStats is one connection's tally, merged after the run.
type connStats struct {
	sent     int64
	commits  int64
	rejected int64
	lat      metrics.LatencyHist
	err      error
}

// Run drives the configured load and reports aggregate throughput and
// latency percentiles. Each connection runs a sender and a receiver
// goroutine: the sender paces submissions against the wall clock
// (open-loop) or the window (closed-loop), the receiver matches replies
// to send timestamps through a ring indexed by transaction id.
func Run(cfg Config) (*Report, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("loadgen: no server addresses")
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if _, err := workload.ByNameTheta(cfg.Workload, cfg.Nodes, cfg.Theta); err != nil {
		return nil, err
	}

	stats := make([]connStats, cfg.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	perConnRate := cfg.Rate / float64(cfg.Conns)
	for i := 0; i < cfg.Conns; i++ {
		addr := cfg.Addrs[i%len(cfg.Addrs)]
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			stats[i].err = runConn(cfg, addr, uint64(i), deadline, perConnRate, &stats[i])
		}(i, addr)
	}
	wg.Wait()

	rep := &Report{
		Workload:   cfg.Workload,
		Servers:    len(cfg.Addrs),
		Conns:      cfg.Conns,
		TargetRate: cfg.Rate,
	}
	var lat metrics.LatencyHist
	for i := range stats {
		if stats[i].err != nil {
			return nil, fmt.Errorf("loadgen: conn %d: %w", i, stats[i].err)
		}
		rep.Sent += stats[i].sent
		rep.Commits += stats[i].commits
		rep.Rejected += stats[i].rejected
		lat.Merge(&stats[i].lat)
	}
	rep.ElapsedSec = time.Since(start).Seconds()
	if rep.ElapsedSec > 0 {
		rep.Throughput = float64(rep.Commits) / rep.ElapsedSec
	}
	if lat.Count() > 0 {
		rep.MeanLatUs = float64(lat.Mean()) / 1e3
		rep.P50LatUs = float64(lat.Percentile(50)) / 1e3
		rep.P95LatUs = float64(lat.Percentile(95)) / 1e3
		rep.P99LatUs = float64(lat.Percentile(99)) / 1e3
		rep.MaxLatUs = float64(lat.Max()) / 1e3
	}
	return rep, nil
}

// runConn drives one connection for the configured duration.
func runConn(cfg Config, addr string, connIdx uint64, deadline time.Time, rate float64, st *connStats) error {
	gen, err := workload.ByNameTheta(cfg.Workload, cfg.Nodes, cfg.Theta)
	if err != nil {
		return err
	}
	cl, err := Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	// Auto-flush keeps pipelined frames moving without a syscall per
	// transaction; the sender still flushes explicitly at pacing gaps.
	cl.fw.SetAutoFlush(16 * 1024)

	// The send-time ring is indexed by transaction id; ids are assigned
	// densely per connection and at most Window are outstanding, so a
	// power-of-two ring strictly larger than the window never wraps onto
	// a live entry. Entries are atomics: the sender stores and the
	// receiver loads with no other synchronization edge between them
	// (the reply's arrival orders the load after the store in real time).
	ringSize := 1 << bits.Len(uint(cfg.Window))
	mask := uint64(ringSize - 1)
	sendNanos := make([]atomic.Int64, ringSize)
	credits := make(chan struct{}, cfg.Window)
	for i := 0; i < cfg.Window; i++ {
		credits <- struct{}{}
	}

	var recvFailure error
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			rep, err := cl.Recv()
			if err != nil {
				recvFailure = err
				return
			}
			switch rep.Status {
			case txnwire.StatusCommitted:
				st.commits++
				st.lat.Record(sim.Time(time.Now().UnixNano() - sendNanos[rep.Resp.TxnID&mask].Load()))
			case txnwire.StatusRejected:
				st.rejected++
			}
			// Every reply answers a send that consumed a credit, so this
			// can never exceed the channel's capacity.
			credits <- struct{}{}
		}
	}()

	rng := sim.NewRNG(cfg.Seed ^ (connIdx+1)*0x9E3779B97F4A7C15)
	interval := time.Duration(0)
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	next := time.Now()
	var sendFailed error
	var txn workload.Txn // Send serializes it before the next draw refills it
loop:
	for time.Now().Before(deadline) {
		if interval > 0 {
			// Open loop: the submission clock advances independently of
			// replies; sleep only when ahead of schedule.
			if d := time.Until(next); d > 0 {
				cl.Flush()
				time.Sleep(d)
			}
			next = next.Add(interval)
		}
		select {
		case <-credits:
		default:
			// Window exhausted: push the pipelined frames out (replies
			// are what refill the window), then wait for one.
			if err := cl.Flush(); err != nil {
				sendFailed = err
				break loop
			}
			select {
			case <-credits:
			case <-recvDone:
				break loop // the server went away; stop submitting
			}
		}
		origin := netsim.NodeID(rng.Intn(cfg.Nodes))
		gen.NextInto(rng, origin, &txn)
		// The timestamp must be installed before Send: the auto-flushing
		// writer can push the frame inside Send, and the reply races
		// anything stored after.
		sendNanos[cl.PeekID()&mask].Store(time.Now().UnixNano())
		if _, err := cl.Send(&txn, origin); err != nil {
			sendFailed = err
			break
		}
		st.sent++
	}
	if sendFailed == nil {
		sendFailed = cl.CloseWrite()
	}
	// Drain every outstanding reply; the server answers all submitted
	// transactions then closes, so the receiver ends with io.EOF.
	<-recvDone
	if sendFailed != nil {
		return sendFailed
	}
	if recvFailure != io.EOF {
		return recvFailure
	}
	return nil
}
