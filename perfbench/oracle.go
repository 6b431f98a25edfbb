package main

// The benchmark's own brute-force top-k. It shares no code with the
// program's search layers (astar, ta, semgraph): it reads the graph only
// through kg's edge list and the predicate space only through
// embed.Space.Similarity, enumerates paths by plain depth-first search and
// joins sub-queries by summing per-entity best pss (Eq. 2).
//
// Path semantics, as the program documents them (DESIGN.md, astar):
// paths are simple, ignore edge direction, use at most MaxHops edges and
// carry one query edge per segment; a segment closes at the first node in
// the end set of that segment's query node. The pss of a path of h edges
// is (Π w)^(1/h) with w = clamp((cos+1)/2), and a path counts when its pss
// is at least τ. A partial path whose weight product is below τ^MaxHops
// is cut: every further weight is at most 1 and the root only grows with
// h, so no completion can reach τ.

import (
	"fmt"
	"math"
	"sort"

	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/query"
	"semkg/internal/transform"
)

// minWeight is the documented floor of a semantic edge weight.
const minWeight = 1e-6

// scoreTol is the float tolerance of a score comparison: sums of pss taken
// in another order differ in the last bits.
const scoreTol = 1e-9

// oracleGraph is a CSR adjacency built from the graph's edge list, so the
// oracle does not depend on the program's adjacency index either.
type oracleGraph struct {
	g    *kg.Graph
	off  []int32
	nbr  []int32
	pred []int32
	// edges maps "src pred dst" name triples to presence, for path checks
	// of time-bounded answers. Built on demand.
	edges map[[3]string]bool
}

func newOracleGraph(g *kg.Graph) *oracleGraph {
	n := g.NumNodes()
	o := &oracleGraph{g: g, off: make([]int32, n+1)}
	m := g.NumEdges()
	for e := 0; e < m; e++ {
		ed := g.EdgeAt(kg.EdgeID(e))
		o.off[ed.Src+1]++
		o.off[ed.Dst+1]++
	}
	for u := 0; u < n; u++ {
		o.off[u+1] += o.off[u]
	}
	o.nbr = make([]int32, 2*m)
	o.pred = make([]int32, 2*m)
	fill := append([]int32(nil), o.off[:n]...)
	for e := 0; e < m; e++ {
		ed := g.EdgeAt(kg.EdgeID(e))
		o.nbr[fill[ed.Src]], o.pred[fill[ed.Src]] = int32(ed.Dst), int32(ed.Pred)
		fill[ed.Src]++
		o.nbr[fill[ed.Dst]], o.pred[fill[ed.Dst]] = int32(ed.Src), int32(ed.Pred)
		fill[ed.Dst]++
	}
	return o
}

func (o *oracleGraph) hasEdge(src, pred, dst string) bool {
	if o.edges == nil {
		o.edges = make(map[[3]string]bool, o.g.NumEdges())
		for e := 0; e < o.g.NumEdges(); e++ {
			ed := o.g.EdgeAt(kg.EdgeID(e))
			o.edges[[3]string{o.g.NodeName(ed.Src), o.g.PredName(ed.Pred), o.g.NodeName(ed.Dst)}] = true
		}
	}
	return o.edges[[3]string{src, pred, dst}]
}

// oracle answers queries over one graph and predicate space.
type oracle struct {
	og      *oracleGraph
	space   *embed.Space
	matcher *transform.Matcher
	tau     float64
	maxHops int
}

func newOracle(g *kg.Graph, space *embed.Space, lib *transform.Library, tau float64, maxHops int) *oracle {
	return &oracle{og: newOracleGraph(g), space: space, matcher: transform.NewMatcher(g, lib), tau: tau, maxHops: maxHops}
}

func (o *oracle) weight(queryPred, pred int32) float64 {
	w := (o.space.Similarity(int(queryPred), int(pred)) + 1) / 2
	return math.Min(1, math.Max(minWeight, w))
}

// oSub is one compiled sub-query: anchors, per-segment end sets and the
// query predicate of each segment.
type oSub struct {
	anchors []int32
	ends    []map[int32]bool
	preds   []int32
}

// oQuery is a query compiled for the oracle around the pivot the
// program's cost model picks (Eq. 1, the query layer's decomposition).
type oQuery struct {
	pivot string
	subs  []oSub
}

// estimator feeds query.Decompose the statistics the engine's cost model
// uses: |φ(v)| and the graph's average degree.
type estimator struct{ o *oracle }

func (e estimator) AnchorCount(name, typeName string) int {
	return len(e.o.matcher.MatchNode(name, typeName))
}
func (e estimator) AvgDegree() float64 { return e.o.og.g.AvgDegree() }

func (o *oracle) compile(q *query.Graph) (*oQuery, error) {
	d, err := query.Decompose(q, query.Options{Estimator: estimator{o}, MaxHops: o.maxHops})
	if err != nil {
		return nil, fmt.Errorf("oracle: decompose: %w", err)
	}
	oq := &oQuery{pivot: d.Pivot}
	for _, sub := range d.Subs {
		var s oSub
		for i, id := range sub.NodeIDs {
			n, _ := q.NodeByID(id)
			ids := o.matcher.MatchNode(n.Name, n.Type)
			if i == 0 {
				for _, u := range ids {
					s.anchors = append(s.anchors, int32(u))
				}
				continue
			}
			set := make(map[int32]bool, len(ids))
			for _, u := range ids {
				set[int32(u)] = true
			}
			s.ends = append(s.ends, set)
		}
		for _, e := range sub.Edges {
			p := o.og.g.PredByName(e.Predicate)
			if p < 0 {
				return nil, fmt.Errorf("oracle: predicate %q not in the graph", e.Predicate)
			}
			s.preds = append(s.preds, int32(p))
		}
		oq.subs = append(oq.subs, s)
	}
	return oq, nil
}

// bestPaths enumerates every qualifying path of one sub-query and returns
// each end entity's best pss.
func (o *oracle) bestPaths(s oSub) map[int32]float64 {
	segs := len(s.preds)
	rows := make([][]float64, segs)
	for i, qp := range s.preds {
		rows[i] = make([]float64, o.og.g.NumPredicates())
		for p := range rows[i] {
			rows[i][p] = o.weight(qp, int32(p))
		}
	}
	floor := math.Pow(o.tau, float64(o.maxHops)) * (1 - 1e-9)
	best := make(map[int32]float64)
	path := make([]int32, 0, o.maxHops+1)
	onPath := func(v int32) bool {
		for _, x := range path {
			if x == v {
				return true
			}
		}
		return false
	}
	var walk func(u int32, seg, hops int, prod float64)
	walk = func(u int32, seg, hops int, prod float64) {
		// Every remaining segment needs at least one more edge.
		if hops+segs-seg > o.maxHops {
			return
		}
		for i := o.og.off[u]; i < o.og.off[u+1]; i++ {
			v := o.og.nbr[i]
			if onPath(v) {
				continue
			}
			w := prod * rows[seg][o.og.pred[i]]
			nseg := seg
			if s.ends[seg][v] {
				nseg++
				if nseg == segs {
					pss := math.Pow(w, 1/float64(hops+1))
					if pss >= o.tau && pss > best[v] {
						best[v] = pss
					}
					continue
				}
			}
			if w < floor {
				continue
			}
			path = append(path, v)
			walk(v, nseg, hops+1, w)
			path = path[:len(path)-1]
		}
	}
	for _, a := range s.anchors {
		path = append(path[:0], a)
		walk(a, 0, 0, 1)
	}
	return best
}

// ranked is one oracle answer: a pivot entity and its score.
type ranked struct {
	node  int32
	name  string
	score float64
}

// topK returns the oracle's ranking cut at k, extended by every further
// entity that ties the k-th score within scoreTol (either may be returned).
func (o *oracle) topK(q *oQuery, k int) []ranked {
	var joined map[int32]float64
	for i, s := range q.subs {
		best := o.bestPaths(s)
		if i == 0 {
			joined = best
			continue
		}
		for u, sc := range joined {
			if b, ok := best[u]; ok {
				joined[u] = sc + b
			} else {
				delete(joined, u)
			}
		}
	}
	out := make([]ranked, 0, len(joined))
	for u, sc := range joined {
		out = append(out, ranked{node: u, score: sc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].node < out[j].node
	})
	cut := len(out)
	if cut > k {
		cut = k
		for cut < len(out) && out[cut].score >= out[k-1].score-scoreTol {
			cut++
		}
	}
	out = out[:cut]
	for i := range out {
		out[i].name = o.og.g.NodeName(kg.NodeID(out[i].node))
	}
	return out
}

// answer is a returned answer reduced to what the checks read.
type answer struct {
	name  string
	score float64
}

// compareTopK checks a returned ranking against the oracle's. It reports
// the share of the oracle top-k that was returned and, when exact is set,
// an error unless the ranking equals the oracle's up to ties: same length,
// the same score at every rank, every entity an oracle entity with that
// score.
func compareTopK(got []answer, want []ranked, k int, exact bool) (float64, error) {
	wantK := len(want)
	if wantK > k {
		wantK = k
	}
	byName := make(map[string]float64, len(want))
	for _, r := range want {
		byName[r.name] = r.score
	}
	hit := 0
	for _, a := range got {
		if sc, ok := byName[a.name]; ok && math.Abs(sc-a.score) <= scoreTol {
			hit++
		}
	}
	quality := 1.0
	if wantK > 0 {
		quality = math.Min(1, float64(hit)/float64(wantK))
	}
	if !exact {
		return quality, nil
	}
	if len(got) != wantK {
		return quality, fmt.Errorf("returned %d answers, oracle has %d", len(got), wantK)
	}
	for i, a := range got {
		if math.Abs(a.score-want[i].score) > scoreTol {
			return quality, fmt.Errorf("rank %d: score %.12f, oracle %.12f", i, a.score, want[i].score)
		}
		if sc, ok := byName[a.name]; !ok || math.Abs(sc-a.score) > scoreTol {
			return quality, fmt.Errorf("rank %d: %q (score %.12f) is not an oracle answer with that score", i, a.name, a.score)
		}
	}
	return quality, nil
}
