package main

import (
	"math"
	"testing"

	"semkg/internal/embed"
	"semkg/internal/kg"
	"semkg/internal/query"
)

// handGraph is a seven-node graph whose top-k is worked out by hand.
//
//	X1 -a-> A   X2 -p-> A   M -a-> A   X3 -b-> M
//	X1 -a-> X4  X1 -a-> B   X2 -b-> B
//
// Against query predicate a, the weights (cos+1)/2 are a: 1, p: 0.8,
// b: 0.5. From anchor A: X1 at 1 (one hop), X2 at 0.8, X3 via M at
// (1·0.5)^(1/2) = 0.7071. X4 is only reachable through X1, which is a Car
// and so closes every path that reaches it: X4 is never an answer.
func handGraph(t *testing.T) (*kg.Graph, *embed.Space) {
	t.Helper()
	b := kg.NewBuilder(7, 7)
	id := map[string]kg.NodeID{}
	for _, n := range [][2]string{{"A", "Country"}, {"B", "Country"}, {"M", "Mid"},
		{"X1", "Car"}, {"X2", "Car"}, {"X3", "Car"}, {"X4", "Car"}} {
		id[n[0]] = b.AddNode(n[0], n[1])
	}
	for _, e := range [][3]string{{"X1", "a", "A"}, {"X2", "p", "A"}, {"M", "a", "A"},
		{"X3", "b", "M"}, {"X1", "a", "X4"}, {"X1", "a", "B"}, {"X2", "b", "B"}} {
		b.AddEdge(id[e[0]], id[e[2]], e[1])
	}
	g := b.Build()
	vec := map[string]embed.Vector{"a": {1, 0}, "p": {0.6, 0.8}, "b": {0, 1}}
	var names []string
	var vs []embed.Vector
	for p := 0; p < g.NumPredicates(); p++ {
		names = append(names, g.PredName(kg.PredID(p)))
		vs = append(vs, vec[g.PredName(kg.PredID(p))])
	}
	space, err := embed.NewSpace(names, vs)
	if err != nil {
		t.Fatal(err)
	}
	return g, space
}

func TestOracleHandGraph(t *testing.T) {
	g, space := handGraph(t)
	oneSub := &query.Graph{
		Nodes: []query.Node{{ID: "v1", Type: "Car"}, {ID: "v2", Name: "A", Type: "Country"}},
		Edges: []query.Edge{{From: "v1", To: "v2", Predicate: "a"}},
	}
	twoSubs := &query.Graph{
		Nodes: []query.Node{{ID: "v1", Type: "Car"}, {ID: "v2", Name: "A", Type: "Country"},
			{ID: "v3", Name: "B", Type: "Country"}},
		Edges: []query.Edge{{From: "v1", To: "v2", Predicate: "a"}, {From: "v1", To: "v3", Predicate: "a"}},
	}
	cases := []struct {
		name    string
		q       *query.Graph
		tau     float64
		hops, k int
		want    []answer
	}{
		{"all three", oneSub, 0.6, 2, 3, []answer{{"X1", 1}, {"X2", 0.8}, {"X3", math.Sqrt(0.5)}}},
		{"cut at k", oneSub, 0.6, 2, 2, []answer{{"X1", 1}, {"X2", 0.8}}},
		{"tau prunes the two-hop path", oneSub, 0.75, 2, 3, []answer{{"X1", 1}, {"X2", 0.8}}},
		{"hop bound", oneSub, 0.6, 1, 3, []answer{{"X1", 1}, {"X2", 0.8}}},
		// From B, X2 scores 0.5 < τ: only X1 is in both sub-queries.
		{"join at the pivot", twoSubs, 0.6, 2, 3, []answer{{"X1", 2}}},
		{"join sums pss", twoSubs, 0.45, 2, 3, []answer{{"X1", 2}, {"X2", 1.3}}},
	}
	for _, c := range cases {
		o := newOracle(g, space, nil, c.tau, c.hops)
		q, err := o.compile(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := o.topK(q, c.k)
		if len(got) != len(c.want) {
			t.Fatalf("%s: got %v, want %v", c.name, got, c.want)
		}
		for i, w := range c.want {
			if got[i].name != w.name || math.Abs(got[i].score-w.score) > 1e-12 {
				t.Errorf("%s: rank %d = %s %.6f, want %s %.6f", c.name, i, got[i].name, got[i].score, w.name, w.score)
			}
		}
		if qual, err := compareTopK(c.want, got, c.k, true); err != nil || qual != 1 {
			t.Errorf("%s: compareTopK on the oracle's own answer: quality %v, %v", c.name, qual, err)
		}
	}
}

func TestCompareTopK(t *testing.T) {
	want := []ranked{{name: "x", score: 2}, {name: "y", score: 1.5}, {name: "z", score: 1.5}}
	// k = 2 with a tie at the cut: either tied entity may be returned.
	if _, err := compareTopK([]answer{{"x", 2}, {"z", 1.5}}, want, 2, true); err != nil {
		t.Errorf("tie at the cut rejected: %v", err)
	}
	if _, err := compareTopK([]answer{{"x", 2}, {"w", 1.5}}, want, 2, true); err == nil {
		t.Error("a foreign entity was accepted")
	}
	if _, err := compareTopK([]answer{{"x", 2}}, want, 2, true); err == nil {
		t.Error("a short ranking was accepted")
	}
	if q, _ := compareTopK([]answer{{"x", 2}, {"w", 1}}, want, 2, false); q != 0.5 {
		t.Errorf("quality = %v, want 0.5", q)
	}
}
