// Command swperf is the repository's benchmark. It runs one named
// workload against the public packages (overlaynet, overlaynet/shard,
// wire, store, sim), times every call from outside, checks the
// answers, and prints one JSON result as its last line of output:
//
//	swperf --workload lookup-wire --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run,
// whose spans are written to the --out directory. The exit status is
// non-zero when a correctness check fails. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// A workload builds several fixtures, each from its own seed derived
// from --seed, and measures them in turn, window by window. Each
// end-to-end metric is the mean of the fixtures' values. On one fixture
// the store-churn churn p50 differed by up to 45% from seed to seed;
// the mean of four halves that spread, and rotating the windows lets
// every host episode fall on all fixtures alike. maxFixtures bounds the
// count so that the fixtures of two seeds never share a seed.
const maxFixtures = 8

// setupRuns is how many times each fixture is built; setup_s is the
// median over all builds, so one build slowed by the host does not
// move it.
const setupRuns = 2

// subSeed is the seed of fixture i.
func subSeed(seed uint64, i int) uint64 { return seed*maxFixtures + uint64(i) + 1 }

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	out     string
	// fixtures is how many fixtures the workload builds.
	fixtures int
	// ref measures the host factor the workload's timings are divided
	// by; nil where they are not (see workload.hostScaled).
	ref *hostRef
}

// phase splits the measured time. An untraced run spends all of it in
// the main loop; a traced run spends a quarter untraced (the reference
// for the tracing overhead), 45% traced, and the rest in layer probes
// (workloads without probes spend it traced too).
func (c config) phase(share float64) time.Duration {
	return time.Duration(float64(c.seconds) * share)
}

const (
	refShare    = 0.25
	tracedShare = 0.45
	probeShare  = 0.30
)

// result is what a workload reports.
type result struct {
	attempted, failed int64
	// problems lists the failed correctness checks (the first 20).
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
	// info holds human-readable lines printed before the result.
	info []string
	// steal is the host steal share over the measured phase, percent.
	steal float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// metricDef names a metric and its unit. The two lists below are the
// contract with BENCHMARK.json: every run prints every entry of its
// list, in this order.
type metricDef struct{ name, unit string }

var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"ops_per_s", "op/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"churn_p50_us", "us"},
}

// A per-layer metric of a layer the workload does not call reads 0.
var layerMetrics = []metricDef{
	{"overlaynet.route_p50_us", "us"},
	{"overlaynet.step_ns", "ns"},
	{"overlaynet.hops_mean", "count"},
	{"graph.csr_bytes_per_node", "B"},
	{"publisher.event_p50_us", "us"},
	{"publisher.publish_event_p50_us", "us"},
	{"wire.codec_ns", "ns"},
	{"wire.send_ns", "ns"},
	{"wire.handoff_p50_us", "us"},
	{"wire.handoff_p99_us", "us"},
	{"wire.frames_per_op", "count"},
	{"wire.bytes_per_op", "B"},
	{"shard.crossings_per_op", "count"},
	{"shard.residual_us", "us"},
	{"shard.timeouts", "count"},
	{"store.get_p50_us", "us"},
	{"store.put_p50_us", "us"},
	{"store.scan_p50_us", "us"},
	{"store.handover_p50_us", "us"},
	{"store.rereplicated_per_churn", "count"},
	{"store.bytes_moved_per_churn", "B"},
	{"store.transfers_per_churn", "count"},
	{"store.read_repairs_per_kop", "count"},
	{"store.hops_mean", "count"},
	{"sim.messages_per_query", "count"},
	{"sim.retries_per_query", "count"},
	{"sim.churn_events_per_call", "count"},
	{"sim.degraded_pct", "%"},
	{"sim.fail_pct", "%"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
	{"env.steal_pct", "%"},
}

// workload is one named benchmark workload.
type workload struct {
	// procs is the fixed GOMAXPROCS the workload runs at.
	procs int
	// fixtures is how many fixtures it measures in turn. sim-lossy
	// builds two: its calls take about 0.8 s, and its seed-to-seed
	// spread was within the host's.
	fixtures int
	// hostScaled divides the workload's timings by the host factor
	// (see hostref.go). The three single-goroutine workloads are
	// compute on one vCPU and slowed with the reference work.
	// lookup-wire's time is mostly goroutine wake-ups across the two
	// vCPUs: its raw p50 held within 2% between two sets in which the
	// others slowed by 30–60%, so dividing it would add the factor's
	// noise and remove none. Its windows are divided only by the
	// stretch stolen time gave them.
	hostScaled bool
	run        func(ctx context.Context, cfg config) (*result, error)
}

var workloads = map[string]workload{
	"lookup-wire":  {procs: 2, fixtures: 4, run: runLookupWire},
	"lookup-local": {procs: 1, fixtures: 4, hostScaled: true, run: runLookupLocal},
	"store-churn":  {procs: 1, fixtures: 4, hostScaled: true, run: runStoreChurn},
	"sim-lossy":    {procs: 1, fixtures: 2, hostScaled: true, run: runSimLossy},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	out := fs.String("out", filepath.Join(".bench_build", "swperf"), "directory for the spans of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "swperf: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || math.IsNaN(*seconds) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "swperf: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(w.procs)
	cfg := config{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		out:      *out,
		fixtures: w.fixtures,
	}
	if w.hostScaled {
		cfg.ref = newHostRef()
	}
	res, err := w.run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "swperf: %s: %v\n", *name, err)
		return 1
	}
	for _, line := range res.info {
		fmt.Fprintf(stdout, "# %s\n", line)
	}
	failPct := 100 * float64(res.failed) / float64(max(res.attempted, 1))
	env, _ := json.Marshal(map[string]any{
		"workload": *name, "seed": *seed, "gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu": runtime.NumCPU(), "go": runtime.Version(), "steal_pct": res.steal,
		"host_factor": endFactor(cfg.ref), "host_scaled": cfg.ref != nil,
		"fail_pct": failPct, "traced": cfg.traced,
	})
	fmt.Fprintf(stdout, "# env %s\n", env)
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "# CHECK FAILED: %s\n", p)
	}

	defs, vals := e2eMetrics, res.e2e
	if cfg.traced {
		defs, vals = layerMetrics, res.layer
		vals["env.steal_pct"] = res.steal
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !cfg.traced {
			fmt.Fprintf(stderr, "swperf: %s did not measure %s\n", *name, d.name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "swperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

// endFactor is the median of five host factors measured at the end of
// a run, for the environment stamp; workloads whose timings are not
// divided by it get it too, so a slow host shows on every result.
func endFactor(ref *hostRef) float64 {
	if ref == nil {
		ref = newHostRef()
	}
	fs := make([]float64, 5)
	for i := range fs {
		fs[i] = ref.factor()
	}
	return median(fs)
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// timedSetup builds every fixture setupRuns times, closing all but the
// last build of each, records the median build time as setup_s and
// returns the fixtures. Each build starts from a collected heap so one
// build's garbage does not bill the next, and is divided by the host
// factor measured right after it.
func timedSetup[F any](res *result, cfg config, build func(seed uint64) (F, error), close func(F)) ([]F, error) {
	fs := make([]F, cfg.fixtures)
	secs := make([]float64, 0, cfg.fixtures*setupRuns)
	for i := range fs {
		for r := 0; r < setupRuns; r++ {
			if r > 0 {
				close(fs[i])
				var zero F
				fs[i] = zero // let the collection below reclaim it
			}
			runtime.GC()
			t0 := time.Now()
			f, err := build(subSeed(cfg.seed, i))
			if err != nil {
				for _, g := range fs[:i] {
					close(g)
				}
				return nil, err
			}
			secs = append(secs, time.Since(t0).Seconds()/cfg.ref.factor())
			fs[i] = f
		}
	}
	res.e2e["setup_s"] = median(secs)
	res.infof("setup builds (s): %.4f", secs)
	return fs, nil
}

// rotate runs whole windows until the deadline, handing window w to
// fixture w mod n, and at least one window to every fixture.
func rotate(n int, until time.Time, window func(i int) error) error {
	for w := 0; w < n || time.Now().Before(until); w++ {
		if err := window(w % n); err != nil {
			return err
		}
	}
	return nil
}

// meanOf is the arithmetic mean of xs.
func meanOf(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// heapMB is the live heap after a full collection, in megabytes.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// memMark is a point on the allocation counters.
type memMark struct {
	mallocs, bytes uint64
	gcs            uint32
}

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.Mallocs, ms.TotalAlloc, ms.NumGC}
}

// recordRuntime stores the allocation and GC per-layer metrics for the
// ops completed between a and b.
func recordRuntime(res *result, a, b memMark, ops int64) {
	ops = max(ops, 1)
	res.layer["runtime.allocs_per_op"] = float64(b.mallocs-a.mallocs) / float64(ops)
	res.layer["runtime.alloc_bytes_per_op"] = float64(b.bytes-a.bytes) / float64(ops)
	res.layer["runtime.gc_cycles"] = float64(b.gcs - a.gcs)
}

// stealMeter brackets a measured phase with /proc/stat samples.
type stealMeter struct {
	start cpuStat
	ok    bool
}

func startSteal() stealMeter {
	st, ok := readCPUStat()
	return stealMeter{st, ok}
}

func (m stealMeter) pct() float64 {
	end, ok := readCPUStat()
	if !m.ok || !ok {
		return -1
	}
	return stealPct(m.start, end)
}

// finishTrace writes the spans of a traced run and records the
// tracing overhead: the traced p50 against the untraced reference.
func finishTrace(res *result, cfg config, name string, ts []*tracer, refP50, tracedP50 float64) error {
	path := filepath.Join(cfg.out, "spans-"+name+".jsonl")
	written, dropped, err := writeSpans(path, ts)
	if err != nil {
		return err
	}
	if refP50 > 0 {
		res.layer["trace.overhead_pct"] = 100 * (tracedP50/refP50 - 1)
	}
	res.infof("trace: %d spans written to %s (ops sampled 1 in %d, %d spans dropped); op p50 untraced %.3f us, traced %.3f us",
		written, path, ts[0].every, dropped, refP50, tracedP50)
	return nil
}
