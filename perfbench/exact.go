package main

// exact-1m and dist-2shard: exact SGQ top-10 on the million-node
// power-law world, through serve.Engine with its caches off, and through
// the distributed coordinator over two shard servers.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"semkg/internal/core"
	"semkg/internal/datagen"
	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/query"
	"semkg/internal/serve"
	"semkg/internal/shard"
)

const (
	largeNodes   = 1_000_000
	largeQueries = 128 // distinct queries; a round sends each once
	largeDim     = 32
	exactK       = 10
	exactTau     = 0.55
	exactHops    = 2
	// setupReps cold loads per run; setup_s is their median.
	setupReps = 3
)

var exactOpts = core.Options{K: exactK, Tau: exactTau, MaxHops: exactHops}

// largeInputs are the generated input files of a power-law world and the
// oracle's answers to its queries.
type largeInputs struct {
	snap, model string
	queries     []*query.Graph
	want        [][]ranked
}

// prepareLarge generates the power-law world of the given size from the
// seed, writes its snapshot and model files, and computes the oracle top-k
// of every distinct query. The generated graph is returned for
// partitioning or ingest replay; a caller that does not need it drops it.
func prepareLarge(e *env, nodes int) (*largeInputs, *kg.Graph, error) {
	t := time.Now()
	p := datagen.LargeWorld(nodes)
	p.Seed = e.seed
	g := datagen.GenerateLarge(p)
	in := &largeInputs{queries: datagen.LargeQueries(g, p, largeQueries)}
	// The large world's predicate vectors are name-seeded (no training);
	// the model file carries them as relation vectors.
	space, err := (&embed.Model{Cfg: embed.Config{Dim: largeDim}}).SpaceFor(g)
	if err != nil {
		return nil, nil, err
	}
	m := &embed.Model{}
	for i := 0; i < space.Len(); i++ {
		m.Relations = append(m.Relations, space.Vector(i))
	}
	in.snap, in.model = filepath.Join(e.work, "world.snap"), filepath.Join(e.work, "world.model")
	if err := writeSnapshotFile(in.snap, g); err != nil {
		return nil, nil, err
	}
	if err := writeModelFile(in.model, m); err != nil {
		return nil, nil, err
	}
	logf("generated %d nodes / %d edges in %s", g.NumNodes(), g.NumEdges(), time.Since(t).Round(time.Millisecond))

	t = time.Now()
	o := newOracle(g, space, nil, exactTau, exactHops)
	for _, q := range in.queries {
		oq, err := o.compile(q)
		if err != nil {
			return nil, nil, err
		}
		in.want = append(in.want, o.topK(oq, exactK))
	}
	logf("oracle answered %d queries in %s", len(in.queries), time.Since(t).Round(time.Millisecond))
	return in, g, nil
}

// exactCheck compares every answer list with the oracle's top-k.
func exactCheck(want [][]ranked) func(int, *core.Result, *tally) {
	return func(i int, res *core.Result, t *tally) {
		q, err := compareTopK(toAnswers(res), want[i], exactK, true)
		if err != nil {
			t.wrongf("query %d: %v", i, err)
		}
		t.quality += q
		t.requests++
	}
}

func runExact1M(e *env) (*report, error) {
	in, _, err := prepareLarge(e, largeNodes)
	if err != nil {
		return nil, err
	}
	var eng *core.Engine
	var srv *serve.Engine
	base := liveHeapMB()
	setup, decode, build, err := coldStarts(setupReps, func() { eng, srv = nil, nil }, func() (coldStart, error) {
		var cs coldStart
		var err error
		if eng, cs, err = loadEngine(in.snap, in.model, nil); err != nil {
			return cs, err
		}
		srv = serve.New(eng, noCaches)
		return cs, nil
	})
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB() - base
	spec := &inprocSpec{queries: in.queries, opts: exactOpts, check: exactCheck(in.want),
		targets: []target{{srv, eng, eng.Matcher()}}}
	if e.trace {
		vals := map[string]float64{"kg.snapshot_decode_ms": decode, "core.engine_build_ms": build}
		t, _, err := spec.traced(e.seconds, vals)
		if err != nil {
			return nil, err
		}
		m, err := perLayer(vals)
		if err != nil {
			return nil, err
		}
		return finish(t, m)
	}
	t, _, err := spec.timed(e.seconds)
	if err != nil {
		return nil, err
	}
	return finish(t, endToEnd(t, setup, heap))
}

// dist2ShardHalo covers the workload's MaxHops, so no search falls back to
// the coordinator's local engine.
const dist2ShardHalo = exactHops

func runDist2Shard(e *env) (*report, error) {
	in, g, err := prepareLarge(e, largeNodes)
	if err != nil {
		return nil, err
	}
	// Partitioning is offline, like generation: the shard servers load
	// their snapshots as input files.
	t := time.Now()
	set, err := shard.Partition(g, shard.Options{Shards: 2, Halo: dist2ShardHalo})
	if err != nil {
		return nil, err
	}
	g = nil
	shardFiles := make([]string, set.Len())
	for i := range shardFiles {
		shardFiles[i] = filepath.Join(e.work, fmt.Sprintf("shard-%d.snap", i))
		f, err := os.Create(shardFiles[i])
		if err != nil {
			return nil, err
		}
		if err := shard.WriteShard(f, set.Shard(i)); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	set = nil
	runtime.GC()
	logf("partitioned into 2 shards (halo %d) in %s", dist2ShardHalo, time.Since(t).Round(time.Millisecond))

	var (
		de      *core.DistEngine
		srv     *serve.Engine
		servers []*proc
	)
	base := liveHeapMB()
	drop := func() {
		for _, p := range servers {
			stopOne(p)
		}
		de, srv, servers = nil, nil, nil
	}
	setup, decode, build, err := coldStarts(setupReps, drop, func() (coldStart, error) {
		var err error
		if servers, err = startShards(e, shardFiles); err != nil {
			return coldStart{}, err
		}
		eng, cs, err := loadEngine(in.snap, in.model, nil)
		if err != nil {
			return cs, err
		}
		hosts := make([][]string, len(servers))
		for i, p := range servers {
			hosts[i] = []string{p.url}
		}
		if de, err = core.NewDistEngine(eng, hosts, core.DistConfig{}); err != nil {
			return cs, err
		}
		srv = serve.New(de, noCaches)
		return cs, nil
	})
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB() - base
	for _, p := range servers {
		rss, err := p.rssMB()
		if err != nil {
			return nil, err
		}
		heap += rss
	}
	spec := &inprocSpec{queries: in.queries, opts: exactOpts, check: exactCheck(in.want),
		targets: []target{{srv, de, de.Base().Matcher()}}}
	if !e.trace {
		t, _, err := spec.timed(e.seconds)
		if err != nil {
			return nil, err
		}
		if st := de.Stats(); st.Fallbacks != 0 || st.Hedges != 0 {
			t.wrongf("coordinator fell back %d times and hedged %d times", st.Fallbacks, st.Hedges)
		}
		return finish(t, endToEnd(t, setup, heap))
	}

	// The traced run puts a byte-counting relay in front of each shard
	// server and a coordinator that reaches the shards through it.
	var relays []*relay
	hosts := make([][]string, len(servers))
	for i, p := range servers {
		r, err := startRelay(p.url)
		if err != nil {
			return nil, err
		}
		defer r.close()
		relays = append(relays, r)
		hosts[i] = []string{r.url}
	}
	if de, err = core.NewDistEngine(de.Base(), hosts, core.DistConfig{}); err != nil {
		return nil, err
	}
	spec.targets[0].srv, spec.targets[0].eng = serve.New(de, noCaches), de
	before := de.Stats()
	for _, r := range relays {
		r.reset()
	}
	vals := map[string]float64{"kg.snapshot_decode_ms": decode, "core.engine_build_ms": build}
	tl, _, err := spec.traced(e.seconds, vals)
	if err != nil {
		return nil, err
	}
	after := de.Stats()
	searches := float64(after.Searches - before.Searches)
	var bytes int64
	var rts []float64
	for _, r := range relays {
		b, rt := r.read()
		bytes += b
		rts = append(rts, rt...)
	}
	vals["shardwire.bytes_per_req"] = float64(bytes) / searches
	vals["shard.roundtrip_ms"] = quantile(rts, 0.5)
	vals["dist.hedges"] = float64(after.Hedges - before.Hedges)
	vals["dist.fallbacks"] = float64(after.Fallbacks - before.Fallbacks)
	m, err := perLayer(vals)
	if err != nil {
		return nil, err
	}
	return finish(tl, m)
}

// startShards starts one shard server per shard snapshot, concurrently,
// as the coordinator's replicas (one each, so hedging never duplicates).
func startShards(e *env, files []string) ([]*proc, error) {
	out := make([]*proc, len(files))
	errs := make([]error, len(files))
	var wg sync.WaitGroup
	for i, f := range files {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = startServer(e, fmt.Sprintf("shard-%d", i), "-serve-shard", f)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("shard servers: %w", err)
	}
	return out, nil
}
