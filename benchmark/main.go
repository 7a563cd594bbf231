// Command benchmark is the repository's performance benchmark: four
// workloads over both front doors (the discrete-event simulator and the
// TCP serving tier), end-to-end metrics with regression bounds in
// BENCHMARK.json, and an outside-in per-layer cost ledger.
//
//	go run ./benchmark                          # all four workloads, one child process each
//	go run ./benchmark -workload sim_ycsb_p4db  # one workload; last stdout line is the result JSON
//	go run ./benchmark -workload W -trace 1     # traced pass: per-layer metrics instead
//	go run ./benchmark -trace out.json          # ... and write the spans (Chrome trace JSON)
//	go run ./benchmark -selfcheck               # run everything twice, compare against the bounds
//
// See README.md in this directory for what each number means and how it
// is taken.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	name string
	why  string
}

// workloads lists the benchmark's workloads in run order. BENCHMARK.json
// repeats names and reasons; bench_test.go holds the two in step.
var workloads = []workloadDef{
	{"sim_ycsb_p4db", "YCSB-A on the p4db engine: hot transactions are one switch pass, so pisa/layout/hotset/workload/engine dominate and lock/twopc idle"},
	{"sim_ycsb_noswitch", "same keys on the noswitch engine: they contend in lock and commit via twopc over netsim; bypass case for switch-path work, exercise case for scheduler and lock work"},
	{"sim_tpcc_durable", "TPC-C on p4db with WAL retention: inserts and multi-row writes in store, warm switch-multicast commits, a log record per commit, the largest cold set-up"},
	{"serve_ycsb_closed", "server.New behind loopback TCP, closed loop of 2 connections x 8 outstanding from a pre-generated pool: the only workload where txnwire, server and loadgen do work"},
}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     string
	quick     bool
	selfcheck bool
}

func (o options) tracing() bool { return o.trace != "" && o.trace != "0" }

// rounds sizes a run: fixed work for a given -seconds, never a deadline.
// A round (simulator) or slice (serving) is sized to about one second, so
// -seconds is their number. Traced passes and -quick use a handful.
func (o options) rounds() int {
	switch {
	case o.quick:
		return 2
	case o.tracing():
		return 6
	}
	return o.seconds
}

// run is what one measured pass over a workload leaves behind: the raw
// per-round samples the end-to-end estimators use and the public counters
// the ledger divides by.
type run struct {
	setup  []float64 // cold build seconds, one per round (sim) or per build (serve)
	rates  []float64 // host commits/s of each round (sim) or slice (serve)
	traced []bool    // rates[i] was taken with spans on (traced passes only)
	busyS  float64   // host seconds the counted commits took

	// Totals that a simulator run takes over warm-up and measured window
	// alike (events, allocations, host time, the cluster counters below) are
	// scaled by simSpec.measuredShare as they are added, so that every
	// per-commit ratio divides like by like.
	commits       int64 // commits inside the timed rounds/slices
	streamCommits int64 // serve: commits the engine counters cover (warm-up included); 0 on sim
	events        float64
	vtime         sim.Time // virtual time over which the engine counted its commits
	vlat          metrics.LatencyHist
	lat           metrics.LatencyHist // serve: client-observed send->reply (host ns)
	mallocs       float64
	memMB         float64

	attempted, failed int64
	problems          []string

	// Layer counters, all from public fields and accessors.
	counters    metrics.Counters
	breakdown   metrics.Breakdown
	switchTxns  int64
	msgs        float64 // netsim.Network.MsgsSent
	lockOps     float64 // lock.Table.Stats.Acquired + Conflicts, all nodes
	lockFails   float64 // lock.Table.Stats.Conflicts
	passes      int64   // pisa passes: SinglePass + MultiPass + HolderPasses
	switchTotal int64   // pisa.Stats.Txns over the same (whole-run) span as passes
	walBytes    int64   // Marshal of every node log (last round / whole stream)
	walRecords  int64
	cpuS        float64 // serve: process CPU over the measured slices
	retries     int64   // serve: server-side retries
}

// engineCommits is the commit count the engine-side counters (events,
// messages, lock operations...) belong to.
func (r *run) engineCommits() int64 {
	if r.streamCommits != 0 {
		return r.streamCommits
	}
	return r.commits
}

// addClusterCounters adds a finished cluster's whole-run counters, scaled
// by the share of the run its commit counters cover.
func (r *run) addClusterCounters(c *core.Cluster, share float64) {
	ctx := c.EngineContext()
	r.msgs += float64(ctx.Net.MsgsSent) * share
	for _, n := range ctx.Nodes {
		st := n.Locks().Stats
		r.lockOps += float64(st.Acquired+st.Conflicts) * share
		r.lockFails += float64(st.Conflicts) * share
	}
	sw := c.Switch().Stats
	r.passes += sw.SinglePass + sw.MultiPass + sw.HolderPasses
	r.switchTotal += sw.Txns
}

// addWAL serializes every node's log; sim workloads do it for the last
// round only (it is the same work every round).
func (r *run) addWAL(c *core.Cluster) {
	for _, n := range c.EngineContext().Nodes {
		l := n.Log()
		r.walBytes += int64(len(l.Marshal()))
		r.walRecords += int64(len(l.SwitchRecords()) + len(l.ColdRecords()))
	}
}

// metric is one printed number.
type metric struct {
	name  string
	unit  string
	value float64
}

// endToEnd derives the end-to-end metrics — the ones BENCHMARK.json bounds
// — from a run. Every workload prints every name.
func (r *run) endToEnd() []metric {
	commits := float64(r.engineCommits())
	return []metric{
		{"setup_s", "s", lowerQuartile(r.setup)},
		{"vcommits_per_s", "1/s", commits / r.vtime.Seconds()},
		{"vlat_p50_us", "us", percentile(&r.vlat, 50) / 1e3},
		{"vlat_p99_us", "us", percentile(&r.vlat, 99) / 1e3},
		{"events_per_commit", "count", r.events / commits},
		{"allocs_per_commit", "count", r.mallocs / float64(r.commits)},
		{"mem_mb", "MB", r.memMB},
	}
}

// hostTime derives the wall-clock numbers a user of the system sees but
// that do not repeat within a tenth on a shared machine (README.md,
// "Bounds"): an untraced run prints them beside the end-to-end metrics, a
// traced one reports them in the per-layer list; nothing bounds them.
// The latencies exist on the serving workload only.
func (r *run) hostTime() []metric {
	ms := []metric{{"commits_per_s", "1/s", upperQuartile(r.rates)}}
	if r.lat.Count() != 0 {
		ms = append(ms,
			metric{"lat_p50_us", "us", percentile(&r.lat, 50) / 1e3},
			metric{"lat_p95_us", "us", percentile(&r.lat, 95) / 1e3})
	}
	return append(ms, metric{"failed_frac", "frac", float64(r.failed) / float64(r.attempted)})
}

// result is the JSON object a single-workload invocation prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all, one child process each)")
	flag.Uint64Var(&o.seed, "seed", 42, "input seed; round i uses seed+i")
	flag.IntVar(&o.seconds, "seconds", 24, "rounds or slices of about a second each: fixed work, never a deadline")
	flag.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics; 1: traced pass printing per-layer metrics; other: same, spans written to this file")
	flag.BoolVar(&o.quick, "quick", false, "smoke sizes (2 rounds, 1 ms windows, 2k-commit slices)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice in alternating order and compare against BENCHMARK.json's bounds")
	flag.Parse()
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}
	if o.seconds < 1 {
		fatalf("-seconds must be at least 1")
	}

	switch {
	case o.selfcheck:
		os.Exit(selfcheck(o))
	case o.workload == "":
		os.Exit(runAll(o))
	}
	res, err := runWorkload(o, os.Stdout)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// measure runs the named workload once.
func measure(o options, tr *tracer) (*run, error) {
	if s, ok := simSpecs[o.workload]; ok {
		return runSim(s, o, tr), nil
	}
	if o.workload == "serve_ycsb_closed" {
		return runServe(o, tr)
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload (have %s)", strings.Join(names, ", "))
}

// runWorkload measures one workload in this process and prints its
// metrics by name; the caller prints the result JSON.
func runWorkload(o options, w io.Writer) (*result, error) {
	var tr *tracer
	if o.tracing() {
		tr = newTracer()
	}
	r, err := measure(o, tr)
	if err != nil {
		return nil, err
	}
	var ms []metric
	if tr == nil {
		ms = r.endToEnd()
	} else {
		ms = layerMetrics(r, o, tr)
		path := o.trace
		if path == "1" {
			path = filepath.Join(".bench_build", "trace-"+o.workload+".json")
		}
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%s: %d spans written to %s\n", o.workload, len(tr.spans), path)
	}

	res := &result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(ms)),
	}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			res.Correct = false
			r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", m.name, m.value))
		}
		fmt.Fprintf(w, "%-20s %-34s %16.6g %s\n", o.workload, m.name, m.value, m.unit)
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	if tr == nil {
		for _, m := range r.hostTime() {
			fmt.Fprintf(w, "%-20s %-34s %16.6g %s (not bounded)\n", o.workload, m.name, m.value, m.unit)
		}
		fmt.Fprintf(w, "%-20s %d rounds: commits/s median %.6g, IQR %.2f%%, whole-run mean %.6g; %d builds, median %.4g s, IQR %.2f%%; %d latency samples\n",
			o.workload, len(r.rates), median(r.rates), 100*iqrFrac(r.rates), float64(r.commits)/r.busyS,
			len(r.setup), median(r.setup), 100*iqrFrac(r.setup), r.latencySamples())
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%-20s FAILED: %s\n", o.workload, p)
	}
	return res, nil
}

func (r *run) latencySamples() int64 {
	if n := r.lat.Count(); n != 0 {
		return n
	}
	return r.vlat.Count()
}

// child re-executes this binary for one workload, so heap state and
// core's process-wide detect cache never leak between workloads. It
// echoes the child's output and parses its last line.
func child(o options, name string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", o.trace}
	if o.tracing() && o.trace != "1" {
		ext := filepath.Ext(o.trace)
		args[len(args)-1] = strings.TrimSuffix(o.trace, ext) + "-" + name + ext
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("%s: no result line: %v", name, err)
	}
	return &res, nil
}

// runAll runs every workload in its own child process and prints the
// derived headline ratio.
func runAll(o options) int {
	results := make(map[string]*result)
	code := 0
	for _, w := range workloads {
		res, err := child(o, w.name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		if !res.Correct {
			code = 1
		}
		results[w.name] = res
	}
	if !o.tracing() {
		a := results["sim_ycsb_p4db"].Metrics["vcommits_per_s"].Value
		b := results["sim_ycsb_noswitch"].Metrics["vcommits_per_s"].Value
		fmt.Printf("derived: sim_ycsb_p4db/vcommits_per_s / sim_ycsb_noswitch/vcommits_per_s = %.2fx (the paper's headline ratio at this scale; not a metric)\n", a/b)
	}
	return code
}
