// Command perfbench is the repository's benchmark: four workloads driven
// through the program's public entry points (serve.Engine, semkgd over
// loopback HTTP, the distributed coordinator over shard servers), every
// answer checked against the brute-force oracle in oracle.go.
//
//	perfbench --workload exact-1m --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the seven end-to-end metrics; with --trace 1 it
// runs the workload once more with the layers' public calls timed from
// outside and prints the per-layer metrics. The last line of standard
// output is one JSON object: correct, attempted, failed, metrics. Run it
// through run.sh, which builds it and semkgd from source. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	// work is a scratch directory under .bench_build (in the checkout)
	// that is removed at exit; semkgd is the program's server binary
	// built by run.sh.
	work, semkgd string
}

// workload runs one named workload and returns its report.
type workload func(e *env) (*report, error)

var workloads = map[string]workload{
	"exact-1m":    runExact1M,
	"tbq-schema":  runTBQSchema,
	"http-mix":    runHTTPMix,
	"dist-2shard": runDist2Shard,
}

func main() {
	name := flag.String("workload", "", "workload name: exact-1m, tbq-schema, http-mix or dist-2shard")
	seed := flag.Int64("seed", 1, "workload seed: the generated inputs are a function of it")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1,
		semkgd: filepath.Join(root, ".bench_build", "bin", "semkgd")}
	if _, err := os.Stat(e.semkgd); err != nil {
		fatal(fmt.Errorf("semkgd binary missing (build with perfbench/run.sh): %w", err))
	}
	e.work, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "work-")
	if err != nil {
		fatal(err)
	}
	rep, err := run(e)
	stopAll()
	_ = os.RemoveAll(e.work)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	stopAll()
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// logf writes progress to standard error, keeping standard output for the
// result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// quantile returns the q-quantile of xs by the nearest-rank method on a
// sorted copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally accumulates one measured phase.
type tally struct {
	lat, ttfa []float64 // ms per completed request
	quality   float64   // sum over requests
	requests  int       // completed requests with a quality sample
	attempted int
	failed    int
	// wrongCount counts correctness failures; wrong keeps the first few
	// messages of either kind.
	wrongCount int
	wrong      []string
	wall       time.Duration
}

func (t *tally) fail(err error) {
	t.failed++
	t.note(err)
}

func (t *tally) note(err error) {
	if len(t.wrong) < 5 {
		t.wrong = append(t.wrong, err.Error())
	}
}

// wrongf records a correctness failure: an answer that disagrees with the
// oracle or with a property the method must have.
func (t *tally) wrongf(format string, args ...any) {
	t.note(fmt.Errorf("wrong answer: "+format, args...))
	t.wrongCount++
}

// measure runs a warm pass (round 0, not recorded), then whole rounds
// until seconds have passed. Every round issues the same operations, so
// attempted and failed scale together.
func measure(seconds float64, round func(rec bool) error) (time.Duration, error) {
	if err := round(false); err != nil {
		return 0, err
	}
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		if err := round(true); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// endToEnd renders the seven end-to-end metrics.
func endToEnd(t *tally, setup []float64, heapMB float64) map[string]metric {
	done := len(t.lat)
	return map[string]metric{
		"latency_p50_ms": {quantile(t.lat, 0.50), "ms"},
		"latency_p95_ms": {quantile(t.lat, 0.95), "ms"},
		"ttfa_p50_ms":    {quantile(t.ttfa, 0.50), "ms"},
		"qps":            {float64(done) / t.wall.Seconds(), "1/s"},
		"answer_quality": {t.quality / float64(t.requests), "ratio"},
		"heap_mb":        {heapMB, "MB"},
		"setup_s":        {quantile(setup, 0.5), "s"},
	}
}

// perLayerNames lists every per-layer metric with its unit. A traced run
// reports all of them; a layer that is not on a workload's path reads 0
// there (README.md says which workload moves which metric).
var perLayerNames = [][2]string{
	{"kg.snapshot_decode_ms", "ms"},
	{"kg.ingest_commit_p50_ms", "ms"},
	{"core.engine_build_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"transform.match_ms", "ms"},
	{"astar.setup_ms", "ms"},
	{"astar.search_ms", "ms"},
	{"astar.popped_per_req", "count"},
	{"astar.pruned_per_req", "count"},
	{"astar.emitted_per_req", "count"},
	{"ta.assemble_ms", "ms"},
	{"tbq.collected_per_req", "count"},
	{"tbq.over_bound_reqs", "count"},
	{"tbq.overrun_p95_ms", "ms"},
	{"go.alloc_mb_per_req", "MB"},
	{"go.gc_per_kreq", "count"},
	{"serve.result_hit_ratio", "ratio"},
	{"serve.plan_hit_ratio", "ratio"},
	{"serve.sub_hit_ratio", "ratio"},
	{"serve.pipeline_runs_per_req", "ratio"},
	{"serve.shed_429", "count"},
	{"api.search_p50_ms", "ms"},
	{"api.stream_ttfb_p50_ms", "ms"},
	{"keyword.search_p50_ms", "ms"},
	{"shardwire.bytes_per_req", "bytes"},
	{"shard.roundtrip_ms", "ms"},
	{"dist.hedges", "count"},
	{"dist.fallbacks", "count"},
}

// perLayer renders the per-layer metrics from the values a traced run
// measured. Every name must be one of perLayerNames.
func perLayer(vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(perLayerNames))
	known := make(map[string]bool, len(perLayerNames))
	for _, nu := range perLayerNames {
		known[nu[0]] = true
		out[nu[0]] = metric{vals[nu[0]], nu[1]}
	}
	for k := range vals {
		if !known[k] {
			return nil, fmt.Errorf("per-layer metric %q is not declared", k)
		}
	}
	return out, nil
}

// finish turns a tally into the report, checking it is whole.
func finish(t *tally, metrics map[string]metric) (*report, error) {
	if t.wrongCount > 0 {
		logf("%d wrong answer(s): %s", t.wrongCount, strings.Join(t.wrong, "; "))
	}
	if t.failed > 0 {
		logf("%d failed operation(s): %s", t.failed, strings.Join(t.wrong, "; "))
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value (no completed requests?)", name)
		}
	}
	return &report{Correct: t.wrongCount == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// liveHeapMB forces a collection and returns this process's live heap. A
// workload reports the live heap its set-up added: the reading after
// set-up minus the one before, so the benchmark's own inputs, queries and
// oracle answers are not counted.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
