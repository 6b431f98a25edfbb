package main

// http-mix: semkgd on loopback with its default caches, serving a
// mid-size power-law world. At most nproc connections send zipf-repeated
// /v1/search, /v1/stream and /v1/keyword requests; one of them also sends
// an /v1/ingest batch every round that adds entities answering queried
// anchors, so writes purge the caches beside the reads.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"semkg/internal/api"
	"semkg/internal/kg"
	"semkg/internal/query"
	"semkg/internal/serve"
)

const (
	// mixNodes sizes the served world: large enough for the power law to
	// make every seed's world alike, small enough that the oracle can
	// replay each ingest generation.
	mixNodes = 50_000
	// mixOpsPerConn reads per connection per round; the ingest batch is
	// sent by connection 0 half-way through its reads.
	mixOpsPerConn = 512
	// mixAdded new entities per ingest batch, two triples each.
	mixAdded = 4
	// mixSetupReps cold starts of semkgd per run; setup_s is their median.
	mixSetupReps = 21
)

var mixOpts = api.Options{K: exactK, Tau: exactTau, MaxHops: exactHops}

type opKind int

const (
	opSearch opKind = iota
	opStream
	opKeyword
)

var kindName = [...]string{"search", "stream", "keyword"}

// mixOp is one read of a connection's fixed per-round list.
type mixOp struct {
	kind opKind
	q    int // query index (in a plan: the query's zipf rank)
}

// mixRead is one completed read.
type mixRead struct {
	op      mixOp
	lo, hi  int // ingest batches acknowledged before it was sent, sent before it ended
	gen     int // keyword: the generation index that answered; -1 otherwise
	lat     time.Duration
	ttfa    time.Duration // stream: first topk line
	ttfb    time.Duration // stream: first line
	answers []answer
	// keyword: how many candidates ran, and the one that did
	executed int
	kwQuery  *query.Graph
}

// mixState is the shared client state of one run.
type mixState struct {
	url     string
	client  *http.Client
	queries []*query.Graph
	kw      []string // keyword form of each query
	seed    int64
	baseGen uint64

	mu        sync.Mutex
	acked     int
	sent      int
	reads     []mixRead
	ingestLat []float64
}

// keywordsFor renders a single-edge query "?x -p-> Name" as the keywords
// "<type> <predicate> <name>", which the keyword front end assembles back
// into that query.
func keywordsFor(q *query.Graph) string {
	if len(q.Edges) != 1 || len(q.Nodes) != 2 {
		return ""
	}
	v, a := q.Nodes[0], q.Nodes[1]
	if v.Name != "" || a.Name == "" {
		return ""
	}
	return v.Type + " " + q.Edges[0].Predicate + " " + a.Name
}

// mixBatch derives ingest batch j: mixAdded entities, each of a queried
// focus type and joined to that query's anchor by its predicate, so it
// answers the query at pss 1.
func mixBatch(seed int64, queries []*query.Graph, j int) []api.IngestTriple {
	var out []api.IngestTriple
	for i := 0; i < mixAdded; i++ {
		q := queries[(j*mixAdded+i)%len(queries)]
		name := fmt.Sprintf("MixNode_%d_%d_%d", seed, j, i)
		out = append(out,
			api.IngestTriple{S: name, P: "type", O: q.Nodes[0].Type},
			api.IngestTriple{S: name, P: q.Edges[0].Predicate, O: q.Nodes[1].Name})
	}
	return out
}

func (s *mixState) post(path string, body any) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

func apiAnswers(as []api.Answer) []answer {
	out := make([]answer, len(as))
	for i, a := range as {
		out[i] = answer{name: a.Entity, score: a.Score}
	}
	return out
}

// read sends one read and records it.
func (s *mixState) read(op mixOp, rec bool) error {
	s.mu.Lock()
	r := mixRead{op: op, lo: s.acked, gen: -1}
	s.mu.Unlock()
	start := time.Now()
	req := api.SearchRequest{Query: api.QueryFrom(s.queries[op.q]), Options: mixOpts}
	switch op.kind {
	case opSearch:
		resp, err := s.post("/v1/search", req)
		if err != nil {
			return err
		}
		var res api.Result
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("/v1/search: %w", err)
		}
		r.answers = apiAnswers(res.Answers)
	case opStream:
		resp, err := s.post("/v1/stream", req)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		var final *api.Result
		for sc.Scan() {
			if r.ttfb == 0 {
				r.ttfb = time.Since(start)
			}
			var ev api.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				resp.Body.Close()
				return fmt.Errorf("/v1/stream: %w", err)
			}
			switch ev.Event {
			case api.EventTopK:
				if r.ttfa == 0 {
					r.ttfa = time.Since(start)
				}
			case api.EventResult:
				final = ev.Result
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil || final == nil {
			return fmt.Errorf("/v1/stream ended without a result (%v)", err)
		}
		if r.ttfa == 0 {
			r.ttfa = time.Since(start)
		}
		r.answers = apiAnswers(final.Answers)
	case opKeyword:
		// One candidate executes, so the blended answer is that candidate's
		// top-k and the keyword read resolves uniquely.
		resp, err := s.post("/v1/keyword", api.KeywordRequest{Keywords: s.kw[op.q], Options: mixOpts, MaxCandidates: 1})
		if err != nil {
			return err
		}
		var res api.KeywordResult
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("/v1/keyword: %w", err)
		}
		r.executed = res.Executed
		if res.Executed == 1 {
			r.kwQuery = res.Candidates[0].Query.Graph()
			r.gen = int(res.Generation - s.baseGen)
			for _, a := range res.Answers {
				r.answers = append(r.answers, answer{name: a.Entity, score: a.Score})
			}
		}
	}
	r.lat = time.Since(start)
	s.mu.Lock()
	r.hi = s.sent
	if rec {
		s.reads = append(s.reads, r)
	}
	s.mu.Unlock()
	return nil
}

// ingest sends batch j.
func (s *mixState) ingest(j int, rec bool) error {
	var body bytes.Buffer
	for _, t := range mixBatch(s.seed, s.queries, j) {
		line, err := api.EncodeIngestTriple(t)
		if err != nil {
			return err
		}
		body.Write(append(line, '\n'))
	}
	s.mu.Lock()
	s.sent++
	s.mu.Unlock()
	start := time.Now()
	resp, err := s.client.Post(s.url+"/v1/ingest", "application/x-ndjson", &body)
	if err != nil {
		return err
	}
	var res api.IngestResult
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/v1/ingest: %s (%v)", resp.Status, err)
	}
	if got := int(res.Generation - s.baseGen); got != j+1 {
		return fmt.Errorf("/v1/ingest: batch %d committed generation %d", j, got)
	}
	lat := time.Since(start)
	s.mu.Lock()
	s.acked++
	if rec {
		s.ingestLat = append(s.ingestLat, ms(lat))
	}
	s.mu.Unlock()
	return nil
}

// debugVars is what the traced run reads from semkgd's /debug/vars
// around its measured phase.
type debugVars struct {
	Memstats struct {
		TotalAlloc uint64
		NumGC      uint32
	} `json:"memstats"`
	Serve serve.Stats `json:"semkgd_serve"`
}

func (s *mixState) debugVars() (*debugVars, error) {
	resp, err := s.client.Get(s.url + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v debugVars
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	return &v, nil
}

func runHTTPMix(e *env) (*report, error) {
	in, base, err := prepareLarge(e, mixNodes)
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	if conns > 2 {
		conns = 2
	}
	// Each connection's reads per round: zipf-distributed ranks, the kinds
	// in turn. A round maps ranks to queries through its own permutation:
	// within a round (one ingest generation, one cache lifetime) the hot
	// queries repeat, while over a run every query takes every rank, so
	// the seed does not decide which few queries dominate the traffic.
	s := &mixState{queries: in.queries, seed: e.seed}
	for _, q := range in.queries {
		kw := keywordsFor(q)
		if kw == "" {
			return nil, fmt.Errorf("query %d has no keyword form", len(s.kw))
		}
		s.kw = append(s.kw, kw)
	}
	rng := rand.New(rand.NewSource(e.seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(in.queries)-1))
	plans := make([][]mixOp, conns)
	for c := range plans {
		for i := 0; i < mixOpsPerConn; i++ {
			plans[c] = append(plans[c], mixOp{kind: opKind(i % 3), q: int(zipf.Uint64())})
		}
	}

	var srvProc *proc
	drop := func() {
		if srvProc != nil {
			stopOne(srvProc)
		}
	}
	// heap_mb is the median resident set over the cold starts: a small
	// server's footprint right after loading swings with when its first
	// collections ran.
	var rss []float64
	setup, _, _, err := coldStarts(mixSetupReps, drop, func() (coldStart, error) {
		var err error
		if srvProc, err = startServer(e, "semkgd", "-snapshot", in.snap, "-model", in.model); err != nil {
			return coldStart{}, err
		}
		mb, err := srvProc.rssMB()
		rss = append(rss, mb)
		return coldStart{}, err
	})
	if err != nil {
		return nil, err
	}
	heap := quantile(rss, 0.5)
	s.url = srvProc.url
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true}}
	defer s.client.CloseIdleConnections()
	var health struct {
		Generation uint64 `json:"generation"`
	}
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	s.baseGen = health.Generation

	var before *debugVars
	round := 0
	wall, err := measure(e.seconds, func(rec bool) error {
		if rec && before == nil && e.trace {
			if before, err = s.debugVars(); err != nil {
				return err
			}
		}
		perm := rand.New(rand.NewSource(e.seed*1_000_003 + int64(round))).Perm(len(in.queries))
		var wg sync.WaitGroup
		errs := make([]error, conns)
		for c := range plans {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i, op := range plans[c] {
					op.q = perm[op.q]
					if c == 0 && i == len(plans[c])/2 {
						if err := s.ingest(round, rec); err != nil {
							errs[c] = err
							return
						}
					}
					if err := s.read(op, rec); err != nil {
						errs[c] = err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		round++
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	reads := len(s.reads)
	ops := reads + len(s.ingestLat)
	t := &tally{attempted: ops, wall: wall}
	if err := checkMix(s, in, base, t); err != nil {
		return nil, err
	}
	for _, r := range s.reads {
		t.lat = append(t.lat, ms(r.lat))
		if r.op.kind == opStream {
			t.ttfa = append(t.ttfa, ms(r.ttfa))
		}
	}
	t.lat = append(t.lat, s.ingestLat...)
	if !e.trace {
		return finish(t, endToEnd(t, setup, heap))
	}

	after, err := s.debugVars()
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	n := float64(ops)
	vals["go.alloc_mb_per_req"] = float64(after.Memstats.TotalAlloc-before.Memstats.TotalAlloc) / (1 << 20) / n
	vals["go.gc_per_kreq"] = float64(after.Memstats.NumGC-before.Memstats.NumGC) * 1000 / n
	serveDelta(vals, before.Serve, after.Serve, reads)
	per := map[opKind][]float64{}
	var ttfb []float64
	for _, r := range s.reads {
		per[r.op.kind] = append(per[r.op.kind], ms(r.lat))
		if r.op.kind == opStream {
			ttfb = append(ttfb, ms(r.ttfb))
		}
	}
	vals["api.search_p50_ms"] = quantile(per[opSearch], 0.5)
	vals["api.stream_ttfb_p50_ms"] = quantile(ttfb, 0.5)
	vals["keyword.search_p50_ms"] = quantile(per[opKeyword], 0.5)
	vals["kg.ingest_commit_p50_ms"] = quantile(s.ingestLat, 0.5)
	// The server's cold-start layers, timed from outside on the same
	// input files with the same public calls semkgd makes.
	_, cs, err := loadEngine(in.snap, in.model, nil)
	if err != nil {
		return nil, err
	}
	vals["kg.snapshot_decode_ms"] = ms(cs.decode)
	vals["core.engine_build_ms"] = ms(cs.build)
	logf("traced latency p50 %.3f ms over %d requests", quantile(t.lat, 0.5), len(t.lat))
	m, err := perLayer(vals)
	if err != nil {
		return nil, err
	}
	return finish(t, m)
}

// checkMix checks every read against the oracle of each graph generation
// it could have been served from (a keyword read: the generation its
// response names). Generations are visited in order, and each one's
// oracle is dropped once the answers it owes are computed.
func checkMix(s *mixState, in *largeInputs, base *kg.Graph, t *tally) error {
	m, err := readModelFile(in.model)
	if err != nil {
		return err
	}
	type key struct {
		gen int
		q   string
	}
	queryKey := func(q *query.Graph) string {
		b, _ := json.Marshal(q)
		return string(b)
	}
	// Which (generation, query) answers the reads need.
	byGen := map[int]map[string]*query.Graph{}
	need := func(gen int, q *query.Graph) {
		if byGen[gen] == nil {
			byGen[gen] = map[string]*query.Graph{}
		}
		byGen[gen][queryKey(q)] = q
	}
	resolved, keyword := 0, 0
	for _, r := range s.reads {
		if r.op.kind != opKeyword {
			for gen := r.lo; gen <= r.hi; gen++ {
				need(gen, s.queries[r.op.q])
			}
			continue
		}
		keyword++
		if r.executed == 0 && len(r.answers) > 0 {
			t.wrongf("keyword %q ran no candidate yet answered", s.kw[r.op.q])
		}
		if r.executed > 1 {
			t.wrongf("keyword %q ran %d candidates, asked for one", s.kw[r.op.q], r.executed)
		}
		if r.kwQuery == nil {
			continue
		}
		if r.gen < r.lo || r.gen > r.hi {
			t.wrongf("keyword %q answered from generation %d outside [%d, %d]", s.kw[r.op.q], r.gen, r.lo, r.hi)
			continue
		}
		// The executed candidate is checked against the oracle either way;
		// when it is the structured query, that is the check that the
		// keyword read matches its structured query.
		if sameEdge(r.kwQuery, s.queries[r.op.q]) {
			resolved++
		}
		need(r.gen, r.kwQuery)
	}
	gens := make([]int, 0, len(byGen))
	for gen := range byGen {
		gens = append(gens, gen)
	}
	sort.Ints(gens)
	want := map[key][]ranked{}
	for _, gen := range gens {
		g := s.graphAt(base, gen)
		space, err := m.SpaceFor(g)
		if err != nil {
			return err
		}
		o := newOracle(g, space, nil, exactTau, exactHops)
		for k, q := range byGen[gen] {
			oq, err := o.compile(q)
			if err != nil {
				return err
			}
			want[key{gen, k}] = o.topK(oq, exactK)
		}
	}

	for _, r := range s.reads {
		q, lo, hi := s.queries[r.op.q], r.lo, r.hi
		if r.op.kind == opKeyword {
			if r.kwQuery == nil || r.gen < lo || r.gen > hi {
				// Reported above; a read that ran no candidate and
				// answered nothing is consistent.
				if r.executed == 0 && len(r.answers) == 0 {
					t.quality++
					t.requests++
				}
				continue
			}
			q, lo, hi = r.kwQuery, r.gen, r.gen
		}
		k := queryKey(q)
		var lastErr error
		ok := false
		for gen := lo; gen <= hi && !ok; gen++ {
			if _, lastErr = compareTopK(r.answers, want[key{gen, k}], exactK, true); lastErr == nil {
				ok = true
			}
		}
		quality := 1.0
		if !ok {
			quality = 0
			t.wrongf("%s of query %d (generations %d..%d): %v", kindName[r.op.kind], r.op.q, lo, hi, lastErr)
		}
		t.quality += quality
		t.requests++
	}
	logf("checked %d reads against %d graph generations; %d of %d keyword reads resolved to their structured query",
		len(s.reads), len(gens), resolved, keyword)
	return nil
}

// sameEdge reports whether the assembled single-edge query a asks what the
// structured query b asks: the same predicate from a node of b's focus
// type to the node b names.
func sameEdge(a, b *query.Graph) bool {
	if len(a.Edges) != 1 || len(a.Nodes) != 2 {
		return false
	}
	focus, _ := a.NodeByID(a.Edges[0].From)
	named, _ := a.NodeByID(a.Edges[0].To)
	if focus.Name != "" {
		focus, named = named, focus
	}
	return a.Edges[0].Predicate == b.Edges[0].Predicate && focus.Name == "" &&
		focus.Type == b.Nodes[0].Type && named.Name == b.Nodes[1].Name
}

// graphAt rebuilds the graph of a generation: the base graph plus the
// first gen ingest batches, in commit order.
func (s *mixState) graphAt(base *kg.Graph, gen int) *kg.Graph {
	b := kg.NewBuilder(base.NumNodes(), base.NumEdges())
	for u := 0; u < base.NumNodes(); u++ {
		b.AddNode(base.NodeName(kg.NodeID(u)), base.TypeName(base.NodeType(kg.NodeID(u))))
	}
	for e := 0; e < base.NumEdges(); e++ {
		ed := base.EdgeAt(kg.EdgeID(e))
		b.AddEdge(ed.Src, ed.Dst, base.PredName(ed.Pred))
	}
	for j := 0; j < gen; j++ {
		for _, t := range mixBatch(s.seed, s.queries, j) {
			if t.P == "type" {
				b.AddNode(t.S, t.O)
				continue
			}
			b.AddEdge(b.AddNode(t.S, ""), b.AddNode(t.O, ""), t.P)
		}
	}
	return b.Build()
}
