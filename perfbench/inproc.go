package main

// Helpers shared by the workloads that drive the program in-process:
// loading the generated input files, one streamed request, and the
// outside-in layer timing of the traced run.

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"semkg/internal/core"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/query"
	"semkg/internal/serve"
	"semkg/internal/transform"
)

// noCaches switches off the serving layer's result, plan and sub-search
// caches (the supported -1 sizes), so every request runs the pipeline.
var noCaches = serve.Config{ResultCache: -1, PlanCache: -1, SubCache: -1}

func writeSnapshotFile(path string, g *kg.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := kg.WriteSnapshot(w, g); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSnapshotFile(path string) (*kg.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return kg.ReadSnapshot(bufio.NewReaderSize(f, 1<<20))
}

func writeModelFile(path string, m *embed.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := embed.WriteModel(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readModelFile(path string) (*embed.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return embed.ReadModel(bufio.NewReader(f))
}

// coldStart is one measured set-up: the time its snapshot decodes and its
// engines build took, for the traced run's kg and core figures.
type coldStart struct{ decode, build time.Duration }

// loadEngine is the in-process cold start: snapshot decode, then model
// read, predicate space and engine construction.
func loadEngine(snapPath, modelPath string, lib *transform.Library) (*core.Engine, coldStart, error) {
	var cs coldStart
	start := time.Now()
	g, err := readSnapshotFile(snapPath)
	if err != nil {
		return nil, cs, fmt.Errorf("load snapshot: %w", err)
	}
	cs.decode = time.Since(start)
	start = time.Now()
	m, err := readModelFile(modelPath)
	if err != nil {
		return nil, cs, fmt.Errorf("load model: %w", err)
	}
	space, err := m.SpaceFor(g)
	if err != nil {
		return nil, cs, err
	}
	eng, err := core.NewEngine(g, space, lib)
	cs.build = time.Since(start)
	return eng, cs, err
}

// coldStarts runs start reps times. Before each, untimed, drop releases
// the previous rep's state and garbage is collected. It returns every
// rep's set-up time in seconds and the median decode and build times in
// milliseconds. start keeps the state it builds; the last rep's state is
// the one the workload serves from.
func coldStarts(reps int, drop func(), start func() (coldStart, error)) (setup []float64, decodeMs, buildMs float64, err error) {
	var decode, build []float64
	for i := 0; i < reps; i++ {
		drop()
		runtime.GC()
		t := time.Now()
		cs, err := start()
		if err != nil {
			return nil, 0, 0, err
		}
		setup = append(setup, time.Since(t).Seconds())
		decode = append(decode, ms(cs.decode))
		build = append(build, ms(cs.build))
	}
	return setup, quantile(decode, 0.5), quantile(build, 0.5), nil
}

// streamed is one completed streamed request as the client saw it.
type streamed struct {
	res       *core.Result
	ttfa, lat time.Duration
}

// serveStream sends one request through serve.Engine's streaming entry
// point, stamps the first top-k frame and waits for the final result.
func serveStream(ctx context.Context, srv *serve.Engine, q *query.Graph, opts core.Options) (streamed, error) {
	start := time.Now()
	st, err := srv.Stream(ctx, q, opts)
	if err != nil {
		return streamed{}, err
	}
	var ttfa time.Duration
	for ev := range st.Events() {
		if _, ok := ev.(core.TopKEvent); ok && ttfa == 0 {
			ttfa = time.Since(start)
		}
	}
	res, err := st.Result()
	if err != nil {
		return streamed{}, err
	}
	return streamed{res: res, ttfa: ttfa, lat: time.Since(start)}, nil
}

// layerTimes is one traced request split at the layer boundaries the
// program exposes: φ matching, compilation, and the stream's phase events.
type layerTimes struct {
	match, compile          time.Duration
	setup, search, asm      time.Duration
	lat                     time.Duration
	popped, pruned, emitted int
	res                     *core.Result
}

// tracedRequest runs one request through the engine's public calls with
// each call timed from outside: Matcher.MatchNode on every query node,
// CompileQuery (Engine.Compile), then StreamCompiled (Engine.StreamPlan)
// with the arrival of the search and assemble phase events and of the
// result stamped.
func tracedRequest(ctx context.Context, eng core.Queryer, m *transform.Matcher, q *query.Graph, opts core.Options) (*layerTimes, error) {
	lt := &layerTimes{}
	start := time.Now()
	for _, n := range q.Nodes {
		m.MatchNode(n.Name, n.Type)
	}
	lt.match = time.Since(start)
	t := time.Now()
	plan, err := eng.CompileQuery(q, opts)
	if err != nil {
		return nil, err
	}
	lt.compile = time.Since(t)
	t = time.Now()
	st, err := eng.StreamCompiled(ctx, plan, opts)
	if err != nil {
		return nil, err
	}
	var searchAt, asmAt time.Time
	for ev := range st.Events() {
		now := time.Now()
		switch ev := ev.(type) {
		case core.PhaseEvent:
			switch ev.Phase {
			case core.PhaseSearch:
				searchAt = now
			case core.PhaseAssemble:
				asmAt = now
			}
		case core.ResultEvent:
			lt.res = ev.Result
			if !searchAt.IsZero() && !asmAt.IsZero() {
				lt.setup = searchAt.Sub(t)
				lt.search = asmAt.Sub(searchAt)
				lt.asm = now.Sub(asmAt)
			}
		}
	}
	lt.lat = time.Since(start)
	if lt.res == nil {
		return nil, fmt.Errorf("stream ended without a result")
	}
	for _, s := range lt.res.SearchStats {
		lt.popped += s.Popped
		lt.pruned += s.Pruned
		lt.emitted += s.Emitted
	}
	return lt, nil
}

// layerTally accumulates traced requests.
type layerTally struct {
	match, compile, setup, search, asm, lat []float64
	popped, pruned, emitted, collected      int
	n                                       int
}

func (lt *layerTally) add(r *layerTimes) {
	lt.match = append(lt.match, ms(r.match))
	lt.compile = append(lt.compile, ms(r.compile))
	lt.setup = append(lt.setup, ms(r.setup))
	lt.search = append(lt.search, ms(r.search))
	lt.asm = append(lt.asm, ms(r.asm))
	lt.lat = append(lt.lat, ms(r.lat))
	lt.popped += r.popped
	lt.pruned += r.pruned
	lt.emitted += r.emitted
	for _, c := range r.res.Collected {
		lt.collected += c
	}
	lt.n++
}

// into writes the traced medians and per-request counts.
func (lt *layerTally) into(vals map[string]float64) {
	n := float64(lt.n)
	vals["transform.match_ms"] = quantile(lt.match, 0.5)
	vals["core.compile_ms"] = quantile(lt.compile, 0.5)
	vals["astar.setup_ms"] = quantile(lt.setup, 0.5)
	vals["astar.search_ms"] = quantile(lt.search, 0.5)
	vals["ta.assemble_ms"] = quantile(lt.asm, 0.5)
	vals["astar.popped_per_req"] = float64(lt.popped) / n
	vals["astar.pruned_per_req"] = float64(lt.pruned) / n
	vals["astar.emitted_per_req"] = float64(lt.emitted) / n
	vals["tbq.collected_per_req"] = float64(lt.collected) / n
	logf("traced latency p50 %.3f ms over %d requests", quantile(lt.lat, 0.5), lt.n)
}

// memDelta brackets a phase with runtime.MemStats readings.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// into writes allocation per request and collections per thousand
// requests over the bracketed phase.
func (d *memDelta) into(vals map[string]float64, requests int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(requests)
	vals["go.alloc_mb_per_req"] = float64(after.TotalAlloc-d.before.TotalAlloc) / (1 << 20) / n
	vals["go.gc_per_kreq"] = float64(after.NumGC-d.before.NumGC) * 1000 / n
}

// serveDelta writes the serving layer's counters over a phase.
func serveDelta(vals map[string]float64, before, after serve.Stats, requests int) {
	ratio := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	vals["serve.result_hit_ratio"] = ratio(after.ResultHits-before.ResultHits, after.ResultMisses-before.ResultMisses)
	vals["serve.plan_hit_ratio"] = ratio(after.PlanHits-before.PlanHits, after.PlanMisses-before.PlanMisses)
	vals["serve.sub_hit_ratio"] = ratio(after.SubHits-before.SubHits, after.SubMisses-before.SubMisses)
	vals["serve.pipeline_runs_per_req"] = float64(after.PipelineRuns-before.PipelineRuns) / float64(requests)
	vals["serve.shed_429"] = float64(after.RejectedQueue - before.RejectedQueue + after.RejectedDeadline - before.RejectedDeadline)
}

// toAnswers reduces a result to the pivot names and scores the checks read.
func toAnswers(res *core.Result) []answer {
	out := make([]answer, len(res.Answers))
	for i, a := range res.Answers {
		out[i] = answer{name: a.PivotName, score: a.Score}
	}
	return out
}
