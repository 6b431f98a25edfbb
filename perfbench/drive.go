package main

// The one-client driver of the in-process workloads (exact-1m, tbq-schema,
// dist-2shard): a closed loop with one request in flight, whole rounds
// over the workload's distinct queries, answers checked after the
// measured phase so the checks cost no measured time.

import (
	"context"
	"time"

	"semkg/internal/core"
	"semkg/internal/query"
	"semkg/internal/serve"
	"semkg/internal/transform"
)

// target is one served engine: the serving layer the timed run sends to,
// and the engine and matcher the traced run calls directly.
type target struct {
	srv     *serve.Engine
	eng     core.Queryer
	matcher *transform.Matcher
}

type inprocSpec struct {
	queries []*query.Graph
	// on[i] indexes the target that answers query i; nil means target 0.
	on      []int
	targets []target
	opts    core.Options
	// check verifies the answer to query i and adds its quality to t.
	check func(i int, res *core.Result, t *tally)
}

func (s *inprocSpec) target(i int) target {
	if s.on == nil {
		return s.targets[0]
	}
	return s.targets[s.on[i]]
}

// stats sums the serving layer's counters over the targets.
func (s *inprocSpec) stats() serve.Stats {
	var sum serve.Stats
	for _, t := range s.targets {
		st := t.srv.Stats()
		sum.ResultHits += st.ResultHits
		sum.ResultMisses += st.ResultMisses
		sum.PlanHits += st.PlanHits
		sum.PlanMisses += st.PlanMisses
		sum.SubHits += st.SubHits
		sum.SubMisses += st.SubMisses
		sum.PipelineRuns += st.PipelineRuns
		sum.RejectedQueue += st.RejectedQueue
		sum.RejectedDeadline += st.RejectedDeadline
	}
	return sum
}

type doneReq struct {
	i   int
	res *core.Result
	lat time.Duration
}

// timed is the untraced measured phase through serve.Engine.Stream. It
// returns the completed requests too, for workload-specific figures.
func (s *inprocSpec) timed(seconds float64) (*tally, []doneReq, error) {
	ctx := context.Background()
	t := &tally{}
	var done []doneReq
	wall, err := measure(seconds, func(rec bool) error {
		for i, q := range s.queries {
			r, err := serveStream(ctx, s.target(i).srv, q, s.opts)
			if !rec {
				if err != nil {
					return err
				}
				continue
			}
			t.attempted++
			if err != nil {
				t.fail(err)
				continue
			}
			ttfa := r.ttfa
			if ttfa == 0 { // no top-k frame: the query matched nothing
				ttfa = r.lat
			}
			t.lat = append(t.lat, ms(r.lat))
			t.ttfa = append(t.ttfa, ms(ttfa))
			done = append(done, doneReq{i, r.res, r.lat})
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	t.wall = wall
	for _, d := range done {
		s.check(d.i, d.res, t)
	}
	return t, done, nil
}

// traced is the traced run: half the time through serve.Engine with the
// serving layer's and the Go runtime's counters read around it, half
// through the layers' public calls timed from outside.
func (s *inprocSpec) traced(seconds float64, vals map[string]float64) (*tally, []doneReq, error) {
	before := s.stats()
	mem := startMem()
	ta, done, err := s.timed(seconds / 2)
	if err != nil {
		return nil, nil, err
	}
	served := ta.attempted + len(s.queries) // the warm round included
	mem.into(vals, served)
	serveDelta(vals, before, s.stats(), served)

	ctx := context.Background()
	lt := &layerTally{}
	tb := &tally{}
	_, err = measure(seconds/2, func(rec bool) error {
		for i, q := range s.queries {
			tg := s.target(i)
			r, err := tracedRequest(ctx, tg.eng, tg.matcher, q, s.opts)
			if !rec {
				if err != nil {
					return err
				}
				continue
			}
			tb.attempted++
			if err != nil {
				tb.fail(err)
				continue
			}
			lt.add(r)
			s.check(i, r.res, tb)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	lt.into(vals)
	ta.attempted += tb.attempted
	ta.failed += tb.failed
	ta.wrongCount += tb.wrongCount
	ta.wrong = append(ta.wrong, tb.wrong...)
	return ta, done, nil
}
