// Command p4db-bench regenerates the paper's evaluation figures on the
// simulated cluster.
//
// Usage:
//
//	p4db-bench [-fig id | -matrix | -golden] [-system names] [-scheme name]
//	           [-quick] [-parallel n] [-measure ms] [-seed n]
//	           [-durable] [-faults]
//	           [-cpuprofile out.prof] [-memprofile out.prof] [-trace out.trace]
//	           [-digest] [-v]
//
// Figure ids: 1, 11t, 11d, 12, 13t, 13d, 14t, 14d, 15ab, 15c, 16, 17,
// 18a, 18b, calvin, scale, drift, recover, or "all" (default; "scale",
// "drift" and "recover" are extensions, not in "all"). The appendix
// raw-throughput figures 19-21 are the txn/s columns of figures 11/13/14;
// "calvin" is the deterministic-execution comparison (No-Switch vs Calvin
// at three sequencer batch sizes vs P4DB); "drift" compares the static
// offline layout, the online adaptive layout and a per-phase oracle on
// hot-set-shifting workloads; "recover" plots modeled crash-recovery
// latency against WAL length for all three recovery stories (switch
// crash, 2PC-coordinator crash, sequencer failover) at increasing crash
// depths.
//
// -matrix replaces the figure sweeps with the scenario-matrix runner: the
// full engines × workloads × schemes grid (every registered engine on
// YCSB-A/B/C, SmallBank and TPC-C under every registered CC scheme, with
// hardwired-scheme engines contributing one cell), one row per cell with
// speedups against the (noswitch, 2pl) cell of the same workload. -system
// and -scheme restrict the grid's engine and scheme axes.
//
// -faults (requires -matrix) appends the crash-recovery dimension to the
// matrix: for YCSB-A, SmallBank and TPC-C, a no-fault golden cell plus a
// fault-injected cell for each recovery story — switch-crash (P4DB),
// coord-crash (No-Switch 2PC) and sequencer-failover (Calvin) — all
// durable, all crashed mid-measurement. Every fault cell hard-asserts
// that its recovered final state digest equals its golden cell's; a
// recovery that loses or invents a single byte aborts the run instead of
// printing a plausible row.
//
// -durable turns on write-ahead logging (core.Config.Durable) in every
// run. Durability gates record retention only — every commit path waits
// out its log-append delays unconditionally — so tables and digests are
// bit-identical with or without the flag; it exists to measure the
// harness's own logging overhead (wall-clock, allocations) and to drive
// recovery tooling from figure-scale runs.
//
// -parallel bounds the worker pool sweep points execute on (all modes;
// 0 = GOMAXPROCS, 1 = serial). Every point is an independent seeded
// simulation and rows are reassembled in declared order, so the tables
// and the digest are bit-identical at any parallelism — only wall-clock
// changes.
//
// -cpuprofile writes a pprof CPU profile of the sweep for harness
// optimization work (see the "Profiling the harness" section of the
// README). -memprofile records every allocation of the sweep
// (runtime.MemProfileRate = 1) and writes the "allocs" profile at exit,
// and -trace writes a runtime execution trace —
// the tool for inspecting the worker pool's scheduling and any residual
// goroutine churn on the hot path. -digest prints the SHA-256 digest of the deterministic row
// fields after the tables — two runs with the same seed and figure set
// must print the same digest, which makes scheduler refactors checkable
// end to end.
//
// -golden runs the pinned golden sweep (bench.GoldenSweep) serially and
// on a 4-worker pool and verifies both digests against the committed
// internal/bench/testdata/golden.digest — the same pin
// TestQuickSweepDeterministic enforces. It exits non-zero on any
// mismatch, which makes it the CI golden-digest gate; all sizing flags
// are ignored (the sweep is pinned by definition).
//
// -system selects execution engines by registry name (comma-separated,
// e.g. -system=p4db,lmswitch,chiller) and replaces the engines the sweep
// figures compare against the No-Switch baseline; any engine registered
// in internal/engine is selectable without touching this command.
// Figures with a fixed engine set (1, 12, 15ab, 15c, 16, 17, 18a, 18b,
// calvin) reject -system instead of silently ignoring it; with -fig all
// the override applies to the figures that sweep an engine axis.
//
// -scheme selects the host DBMS concurrency-control family by scheme
// registry name (2pl, occ, mvcc) for every run of the sweep; engines that
// hardwire their scheme (lmswitch, chiller, occ, calvin) are unaffected, and the
// per-row cc column reports what actually ran.
//
// -theta switches every YCSB generator to Zipfian key selection at that
// skew exponent instead of the paper's two-level hot/cold split. The
// "scale" figure sweeps its own θ axis and ignores the flag.
//
// -adaptive turns on the online adaptive layout (sliding-window hot-set
// re-detection plus live switch↔node tuple migration) in every run;
// -adapt-interval overrides the re-detection period in virtual µs. The
// "drift" figure pins adaptivity per series and ignores both.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (or 'all')")
	matrix := flag.Bool("matrix", false, "run the engines × workloads × schemes scenario matrix instead of the figures")
	golden := flag.Bool("golden", false, "run the pinned golden sweep and verify its digest against internal/bench/testdata/golden.digest (CI gate)")
	parallel := flag.Int("parallel", 0, "worker pool size for sweep points (0 = GOMAXPROCS, 1 = serial)")
	system := flag.String("system", "", "engine(s) for the sweep figures, e.g. p4db,lmswitch (default: each figure's paper set)")
	scheme := flag.String("scheme", "", "host CC scheme for every run, e.g. 2pl, occ, mvcc (default: 2pl; scheme-pinned engines are unaffected)")
	quick := flag.Bool("quick", false, "reduced scale for a fast smoke run")
	measureMs := flag.Float64("measure", 0, "override measurement window in virtual ms")
	samples := flag.Int("samples", 0, "override detection sample size")
	threads := flag.String("threads", "", "override thread sweep, e.g. 8,14,20")
	theta := flag.Float64("theta", 0, "Zipf skew exponent for the YCSB figures (0 = paper's hot/cold split)")
	adaptive := flag.Bool("adaptive", false, "turn on the online adaptive layout in every run (the 'drift' figure pins adaptivity per series and ignores this)")
	adaptIntervalUs := flag.Float64("adapt-interval", 0, "adaptive re-detection period in virtual µs (0 = core default; implies nothing without -adaptive)")
	durable := flag.Bool("durable", false, "turn on write-ahead logging in every run (digest-invariant; the fault cells force it on regardless)")
	faults := flag.Bool("faults", false, "append the crash-recovery dimension to the scenario matrix (requires -matrix)")
	seed := flag.Uint64("seed", 42, "simulation seed")
	verbose := flag.Bool("v", false, "print per-run progress")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "record every allocation of the sweep and write the pprof allocs profile to this file")
	traceOut := flag.String("trace", "", "write a runtime execution trace of the sweep to this file")
	digest := flag.Bool("digest", false, "print the deterministic row digest after the tables")
	flag.Parse()

	opts := bench.Default()
	if *quick {
		opts = bench.Quick()
	}
	if *measureMs > 0 {
		opts.Measure = sim.Time(*measureMs * float64(sim.Millisecond))
	}
	if *samples > 0 {
		opts.Samples = *samples
	}
	if *threads != "" {
		var ts []int
		for _, part := range strings.Split(*threads, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "bad -threads value %q\n", part)
				os.Exit(2)
			}
			ts = append(ts, v)
		}
		opts.Threads = ts
	}
	if *system != "" {
		var systems []string
		for _, part := range strings.Split(*system, ",") {
			name := strings.TrimSpace(part)
			if _, err := engine.Lookup(name); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			systems = append(systems, name)
		}
		opts.Systems = systems
	}
	if *scheme != "" {
		if _, err := engine.LookupScheme(*scheme); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.Scheme = *scheme
	}
	if *theta < 0 {
		fmt.Fprintf(os.Stderr, "bad -theta value %g (must be >= 0)\n", *theta)
		os.Exit(2)
	}
	opts.Theta = *theta
	if *adaptIntervalUs < 0 {
		fmt.Fprintf(os.Stderr, "bad -adapt-interval value %g (must be >= 0)\n", *adaptIntervalUs)
		os.Exit(2)
	}
	opts.Adaptive = *adaptive
	opts.AdaptInterval = sim.Time(*adaptIntervalUs * float64(sim.Microsecond))
	if *faults && !*matrix {
		fmt.Fprintln(os.Stderr, "-faults is a scenario-matrix dimension; it requires -matrix")
		os.Exit(2)
	}
	opts.Durable = *durable
	opts.Faults = *faults
	opts.Seed = *seed
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "bad -parallel value %d\n", *parallel)
		os.Exit(2)
	}
	opts.Parallel = *parallel
	if *verbose {
		opts.Progress = os.Stderr
	}

	if *golden {
		// The golden sweep is pinned by definition: only sizing flags may
		// be silently ignored. Flags that would change WHAT runs must
		// hard-error instead of producing a misleading "OK" for a sweep
		// the user did not select. -durable is in the list even though the
		// digest is durability-invariant by design: the gate re-asserts the
		// exact configuration the pin was recorded under (Durable=false),
		// and the invariance itself has its own pins
		// (core.TestDurableDigestInvariance, bench's recover tests).
		conflict := *fig != "all" || *matrix
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "system", "scheme", "seed", "theta", "adaptive", "adapt-interval", "durable", "faults":
				conflict = true
			}
		})
		if conflict {
			fmt.Fprintln(os.Stderr, "-golden runs the pinned sweep; it is mutually exclusive with -fig, -matrix, -system, -scheme, -seed, -theta, -adaptive, -adapt-interval, -durable and -faults")
			os.Exit(2)
		}
		runGoldenGate()
		return
	}

	runner := bench.All
	switch {
	case *matrix:
		if *fig != "all" {
			fmt.Fprintln(os.Stderr, "-matrix and -fig are mutually exclusive")
			os.Exit(2)
		}
		runner = bench.Matrix
	case *fig != "all":
		r, ok := bench.Figures[*fig]
		if !ok {
			ids := make([]string, 0, len(bench.Figures))
			for id := range bench.Figures {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			fmt.Fprintf(os.Stderr, "unknown figure %q; available: %v or all\n", *fig, ids)
			os.Exit(2)
		}
		if len(opts.Systems) > 0 && !bench.SystemsAware[*fig] {
			aware := make([]string, 0, len(bench.SystemsAware))
			for id := range bench.SystemsAware {
				aware = append(aware, id)
			}
			sort.Strings(aware)
			fmt.Fprintf(os.Stderr, "figure %q compares a fixed engine set and ignores -system; figures honoring -system: %v (or use -matrix / -fig all)\n", *fig, aware)
			os.Exit(2)
		}
		runner = r
	}

	// Start profiling only after every flag is validated: the os.Exit(2)
	// error paths above would bypass the deferred StopCPUProfile and leave
	// a corrupt profile behind.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(2)
		}
		defer trace.Stop()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(2)
		}
		// Record every allocation of the sweep, not one per 512 KiB: the
		// per-site object counts are then exact, which is what sizing an
		// allocs-per-commit change needs.
		runtime.MemProfileRate = 1
		defer func() {
			// The profile only covers allocations up to the last completed
			// collection.
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	rows := runner(opts)
	bench.Print(os.Stdout, rows)
	if *verbose {
		fmt.Fprintf(os.Stderr, "detect cache: %s\n", core.DetectCacheStats())
	}
	if *digest {
		fmt.Printf("\ndigest: %s\n", bench.Digest(rows))
	}
}

// runGoldenGate is the -golden mode: run the pinned golden sweep twice
// (serial and on a 4-worker pool) and verify both digests against the
// committed golden.digest file. Exit status is the CI contract: 0 only
// when both runs reproduce the pin bit-for-bit.
func runGoldenGate() {
	pinned := bench.GoldenDigest()
	fmt.Printf("golden (pinned):     %s\n", pinned)
	serial := bench.Digest(bench.GoldenSweep(1))
	fmt.Printf("golden (serial):     %s\n", serial)
	parallel := bench.Digest(bench.GoldenSweep(4))
	fmt.Printf("golden (parallel=4): %s\n", parallel)
	if serial != parallel {
		fmt.Fprintln(os.Stderr, "FAIL: serial and parallel golden sweeps diverge")
		os.Exit(1)
	}
	if serial != pinned {
		fmt.Fprintln(os.Stderr, "FAIL: golden sweep digest moved off internal/bench/testdata/golden.digest; deliberate change? update the file and record why in BENCH_sim.json")
		os.Exit(1)
	}
	fmt.Println("OK: golden sweep reproduces the pinned digest (serial == parallel=4)")
}
