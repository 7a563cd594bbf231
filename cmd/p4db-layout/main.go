// Command p4db-layout runs the offline preparation step in isolation:
// build a cluster for the selected engine (which performs sampling,
// hot-set detection, the declustered layout computation and — for P4DB —
// the register offload), then replay a fresh workload sample and report
// how many of the hot transactions would execute in a single pipeline
// pass — the metric Section 4's data layout optimizes.
//
// -workload all reports every workload (ycsb-a/b/c, smallbank, tpcc) in
// one invocation; the preparations run concurrently on a worker pool
// (-parallel, 0 = GOMAXPROCS), with each workload's report buffered and
// printed in declared order so the output is deterministic. -cachestats
// appends the process-wide detection-cache counters.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hotset"
	"repro/internal/layout"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// allWorkloads lists the -workload all set in report order.
var allWorkloads = []string{"ycsb-a", "ycsb-b", "ycsb-c", "smallbank", "tpcc"}

func makeGen(wl string, nodes int) (workload.Generator, error) {
	switch wl {
	case "ycsb-a":
		return workload.NewYCSB(workload.YCSBWorkloadA(nodes)), nil
	case "ycsb-b":
		return workload.NewYCSB(workload.YCSBWorkloadB(nodes)), nil
	case "ycsb-c":
		return workload.NewYCSB(workload.YCSBWorkloadC(nodes)), nil
	case "smallbank":
		return workload.NewSmallBank(workload.DefaultSmallBank(nodes, 10)), nil
	case "tpcc":
		return workload.NewTPCC(workload.DefaultTPCC(nodes, nodes)), nil
	}
	return nil, fmt.Errorf("unknown workload %q", wl)
}

func main() {
	wl := flag.String("workload", "smallbank", "ycsb-a | ycsb-b | ycsb-c | smallbank | tpcc | all")
	system := flag.String("system", "p4db", "execution engine (registry name) whose offline prep to run")
	nodes := flag.Int("nodes", 8, "database nodes")
	samples := flag.Int("samples", 60000, "sampled transactions for detection")
	random := flag.Bool("random", false, "use the random (worst-case) layout instead of the declustered one")
	seed := flag.Uint64("seed", 42, "sampling seed")
	parallel := flag.Int("parallel", 0, "concurrent preparations with -workload all (0 = GOMAXPROCS)")
	cachestats := flag.Bool("cachestats", false, "print detection-cache hit/miss counters after the reports")
	window := flag.Int("window", 0, "also replay the first N txns of the recorded stream through the online (sliding-window) selection and report its overlap with the offline hot set")
	flag.Parse()

	if *window < 0 {
		fmt.Fprintf(os.Stderr, "bad -window value %d\n", *window)
		os.Exit(2)
	}

	eng, err := engine.Lookup(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	workloads := []string{*wl}
	if *wl == "all" {
		workloads = allWorkloads
	}
	for _, w := range workloads {
		if _, err := makeGen(w, *nodes); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	// Run every selected preparation on a bounded pool; reports are
	// buffered per workload and printed in declared order, so -workload
	// all output is deterministic at any parallelism.
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "bad -parallel value %d\n", *parallel)
		os.Exit(2)
	}
	workers := *parallel
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	outputs := make([]bytes.Buffer, len(workloads))
	var wg sync.WaitGroup
	for i := range workloads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			report(&outputs[i], eng, workloads[i], *nodes, *samples, *window, *random, *seed)
		}(i)
	}
	wg.Wait()

	for i := range outputs {
		if i > 0 {
			fmt.Println()
		}
		os.Stdout.Write(outputs[i].Bytes())
	}
	if *cachestats {
		fmt.Printf("detect cache:   %s\n", core.DetectCacheStats())
	}
}

// report runs the offline pipeline for one workload and writes its
// summary to w.
func report(w io.Writer, eng engine.Engine, wl string, nodes, samples, window int, random bool, seed uint64) {
	gen, err := makeGen(wl, nodes)
	if err != nil {
		panic(err) // validated in main
	}

	// The cluster constructor performs the whole offline pipeline of
	// Figure 3 — sampling, detection, (profile-refined) layout and the
	// engine's Prepare step — exactly as the benchmarks run it.
	cfg := core.DefaultConfig()
	cfg.Engine = eng.Name()
	cfg.Nodes = nodes
	cfg.SampleTxns = samples
	cfg.RandomLayout = random
	cfg.Seed = seed
	c := core.NewCluster(cfg, gen)

	l := c.Layout()
	ix := c.HotIndex()
	spec := layout.Spec{Stages: cfg.Switch.Stages, ArraysPerStage: cfg.Switch.ArraysPerStage, SlotsPerArray: cfg.Switch.SlotsPerArray}

	fmt.Fprintf(w, "engine:         %s (%s)\n", eng.Label(), eng.Name())
	fmt.Fprintf(w, "workload:       %s (%d nodes, %d sampled txns)\n", gen.Name(), nodes, samples)
	fmt.Fprintf(w, "hot tuples:     %d on the switch layout\n", ix.OnSwitchCount())
	fmt.Fprintf(w, "layout:         %d tuples over %d stages x %d arrays\n",
		l.NumTuples(), spec.Stages, spec.ArraysPerStage)

	// Replay a fresh sample against the computed layout.
	rng := sim.NewRNG(seed)
	single, multi, hot := 0, 0, 0
	var txn workload.Txn
	var ops []layout.HotOp
	for i := 0; i < samples; i++ {
		gen.NextInto(rng, netsim.NodeID(i%nodes), &txn)
		allHot := len(txn.Ops) > 0
		ops = ops[:0]
		for _, op := range txn.Ops {
			if !ix.OnSwitch(op.TupleKey()) {
				allHot = false
				break
			}
			ops = append(ops, layout.HotOp{
				Tuple: layout.TupleID(op.TupleKey()), Op: op.Kind.WireOp(),
				Operand: op.Value, DependsOn: op.DependsOn,
			})
		}
		if !allHot {
			continue
		}
		hot++
		if _, _, passes, err := layout.Compile(ops, l); err == nil && passes == 1 {
			single++
		} else {
			multi++
		}
	}
	fmt.Fprintf(w, "hot txns:       %d of %d sampled\n", hot, samples)
	if hot > 0 {
		fmt.Fprintf(w, "single-pass:    %d (%.2f%%)\n", single, 100*float64(single)/float64(hot))
		fmt.Fprintf(w, "multi-pass:     %d (%.2f%%)\n", multi, 100*float64(multi)/float64(hot))
	}

	// Stage occupancy summary.
	occ := make(map[uint8]int)
	for _, tid := range l.Tuples() {
		s, _ := l.SlotOf(tid)
		occ[s.Stage]++
	}
	fmt.Fprintln(w, "stage occupancy:")
	for st := 0; st < spec.Stages; st++ {
		fmt.Fprintf(w, "  stage %2d: %d tuples\n", st, occ[uint8(st)])
	}

	// -window: replay the first N transactions of the same recorded stream
	// through the online controller's selection (rank by window frequency,
	// no plateau cut, capped at switch capacity) and report how much of
	// the offline hot set a window that size would rediscover — the
	// offline/online detector comparison on one sample.
	if window > 0 {
		wgen, err := makeGen(wl, nodes)
		if err != nil {
			panic(err) // validated in main
		}
		wrng := sim.NewRNG(seed)
		freq := make(map[store.GlobalKey]int64)
		n := window
		if n > samples {
			n = samples
		}
		for i := 0; i < n; i++ {
			wgen.NextInto(wrng, netsim.NodeID(i%nodes), &txn)
			for _, op := range txn.Ops {
				freq[op.TupleKey()]++
			}
		}
		selected := hotset.SelectTop(freq, spec.Capacity())
		overlap := 0
		for _, k := range selected {
			if ix.OnSwitch(k) {
				overlap++
			}
		}
		fmt.Fprintf(w, "window replay:  first %d txns, %d distinct keys\n", n, len(freq))
		fmt.Fprintf(w, "window select:  %d keys, %d on the offline hot set", len(selected), overlap)
		if cnt := ix.OnSwitchCount(); cnt > 0 {
			fmt.Fprintf(w, " (%.1f%% coverage)", 100*float64(overlap)/float64(cnt))
		}
		fmt.Fprintln(w)
	}
}
