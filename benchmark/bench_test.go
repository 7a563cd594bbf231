package main

import (
	"bytes"
	"math"
	"net"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/txnwire"
	"repro/internal/workload"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(vals, n=4) for each input.
	cases := []struct {
		vals []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{5, 1, 9, 3, 7}, [3]float64{2, 5, 8}},
		{[]float64{3}, [3]float64{3, 3, 3}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.vals)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
	if q1, q2, q3 := quartiles(nil); q1 != 0 || q2 != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v %v %v, want zeros", q1, q2, q3)
	}
}

func TestEstimators(t *testing.T) {
	// statistics.quantiles([70, 80, 90, 98, 99, 100], n=4) = [77.5, 94, 99.25].
	rates := []float64{90, 100, 80, 99, 70, 98}
	if got := upperQuartile(rates); got != 99.25 {
		t.Errorf("upperQuartile(%v) = %v, want 99.25", rates, got)
	}
	// statistics.quantiles([0.30, 0.31, 0.33, 0.45], n=4)[0] = 0.3025.
	times := []float64{0.31, 0.30, 0.45, 0.33}
	if got := lowerQuartile(times); math.Abs(got-0.3025) > 1e-12 {
		t.Errorf("lowerQuartile(%v) = %v, want 0.3025", times, got)
	}
	if upperQuartile(nil) != 0 || lowerQuartile(nil) != 0 {
		t.Error("estimators of no samples must be 0")
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// (q3 - q1) / median of 1..10 = 5.5 / 5.5.
	if got := iqrFrac([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("iqrFrac = %v, want 1", got)
	}
}

// TestPercentileInterpolates: the estimate stays inside the bucket the
// histogram names, moves with the mass inside it, and never decreases in p.
func TestPercentileInterpolates(t *testing.T) {
	var h metrics.LatencyHist
	for i := 0; i < 1000; i++ {
		h.Record(sim.Time(10_000 + i)) // 10.000 .. 10.999 us, a few buckets
	}
	for i := 0; i < 10; i++ {
		h.Record(sim.Time(1_000_000))
	}
	for _, p := range []float64{10, 50, 90, 99, 99.9} {
		edge := float64(h.Percentile(p))
		got := percentile(&h, p)
		if got > edge || got < edge*(1-1.0/32) {
			t.Errorf("percentile(%v) = %v, outside the bucket ending at %v", p, got, edge)
		}
	}
	p50 := percentile(&h, 50)
	if want := 10_500.0; math.Abs(p50-want) > 0.01*want {
		t.Errorf("p50 = %v, want within 1%% of %v", p50, want)
	}
	last := 0.0
	for p := 0.5; p < 100; p += 0.5 { // across bucket borders too
		got := percentile(&h, p)
		if got < last {
			t.Errorf("percentile(%v) = %v, below percentile(%v) = %v", p, got, p-0.5, last)
		}
		last = got
	}
	var empty metrics.LatencyHist
	if got := percentile(&empty, 50); got != 0 {
		t.Errorf("percentile of an empty histogram = %v, want 0", got)
	}
}

// echoServer answers every TxnRequest frame with a committed TxnReply
// carrying the same transaction id, until the client half-closes.
func echoServer(t *testing.T) (addr string, wait func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				fr, fw := txnwire.NewFrameReader(nc), txnwire.NewFrameWriter(nc)
				fw.SetAutoFlush(1) // one reply per write keeps the window moving
				var req txnwire.TxnRequest
				for {
					ft, payload, err := fr.Next()
					if err != nil {
						return
					}
					if ft != txnwire.FrameTxnReq || txnwire.DecodeTxnRequestInto(&req, payload) != nil {
						t.Error("echo server: malformed request")
						return
					}
					rep := txnwire.TxnReply{Status: txnwire.StatusCommitted, Resp: txnwire.Response{TxnID: req.Pkt.Header.TxnID}}
					if fw.WriteTxnReply(&rep) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); <-done }
}

// TestDriveAgainstEchoServer runs the closed-loop driver against a stub
// that commits everything: all requests are answered once, every slice is
// delimited, and the percentiles are ordered.
func TestDriveAgainstEchoServer(t *testing.T) {
	addr, wait := echoServer(t)
	defer wait()

	gen, err := workload.ByName(serveWorkload, serveNodes)
	if err != nil {
		t.Fatal(err)
	}
	const conns, slices, slice, warmup = 2, 5, 400, 100
	cfg := driveConfig{window: 4, warmup: warmup, slice: slice, slices: slices}
	var ncs []net.Conn
	var mu sync.Mutex // boundaries are completed by whichever receiver counts the reply
	var boundaries []int
	cfg.atBoundary = func(k int) {
		mu.Lock()
		boundaries = append(boundaries, k)
		mu.Unlock()
	}
	for ci := 0; ci < conns; ci++ {
		rng := sim.NewRNG(uint64(ci + 1))
		pool := make([]pooled, 64)
		for j := range pool {
			origin := netsim.NodeID(rng.Intn(serveNodes))
			pool[j] = pooled{txn: gen.Next(rng, origin), origin: origin}
		}
		cfg.pools = append(cfg.pools, pool)
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		ncs = append(ncs, nc)
	}

	res, err := drive(cfg, ncs)
	if err != nil {
		t.Fatal(err)
	}
	const total = warmup + slices*slice
	if res.sent != total || res.commits != total || res.rejected != 0 || res.aborted != 0 || res.strays != 0 {
		t.Fatalf("sent %d, commits %d, rejected %d, aborted %d, strays %d; want %d sent and committed, nothing else",
			res.sent, res.commits, res.rejected, res.aborted, res.strays, total)
	}
	if len(res.sliceS) != slices || len(boundaries) != slices+1 {
		t.Fatalf("%d slice times, %d boundaries; want %d, %d", len(res.sliceS), len(boundaries), slices, slices+1)
	}
	for k, s := range res.sliceS {
		if s <= 0 {
			t.Errorf("slice %d took %v s", k, s)
		}
	}
	if p50, p95 := res.lat.Percentile(50), res.lat.Percentile(95); p50 <= 0 || p50 > p95 {
		t.Errorf("p50 %v, p95 %v", p50, p95)
	}
	if n := res.lat.Count(); n != slices*slice {
		t.Errorf("%d latency samples, want %d (the warm-up must not be recorded)", n, slices*slice)
	}
}

// TestQuickSmoke runs every workload at smoke size and holds the printed
// metrics to BENCHMARK.json: every end-to-end name with its unit, finite
// and non-zero, for every workload; and, for one workload of each front
// door, every per-layer name from the traced pass.
func TestQuickSmoke(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}

	check := func(t *testing.T, o options, want []specMetric, nonZero bool) {
		var out bytes.Buffer
		res, err := runWorkload(o, &out)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("metric %s not printed", m.Name)
			case got.Unit != m.Unit:
				t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("metric %s = %v", m.Name, got.Value)
			case nonZero && got.Value <= 0:
				t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, got.Value)
			}
			if !bytes.Contains(out.Bytes(), []byte(m.Name)) {
				t.Errorf("metric %s missing from the printed table", m.Name)
			}
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // names and units are checked, not speed
			check(t, options{workload: w.name, seed: 7, seconds: 1, trace: "0", quick: true}, spec.EndToEnd, true)
		})
	}
	for _, name := range []string{"sim_ycsb_p4db", "serve_ycsb_closed"} {
		t.Run(name+"/trace", func(t *testing.T) {
			t.Parallel()
			o := options{workload: name, seed: 7, seconds: 1, quick: true, trace: filepath.Join(t.TempDir(), "spans.json")}
			check(t, o, spec.PerLayer, false)
		})
	}
}
