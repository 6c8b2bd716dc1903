package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"freejoin/internal/core"
	"freejoin/internal/exec"
	"freejoin/internal/graph"
	"freejoin/internal/optimizer"
	"freejoin/internal/parse"
	"freejoin/internal/plancache"
	"freejoin/internal/server"
)

// This file holds every call the traced pass makes into the program's
// layers. Levels 1 and 2 replay the request sequence inside the process
// against the served core: level 1 calls Session.Exec and marshals the
// response as a connection goroutine does, level 2 calls the layers one
// by one in the order Session.runQuery does and times each from
// outside. What runQuery does between those calls (query tracer, pprof
// labels, response assembly) is not replayed, so it shows as
// server.session_self_us = level 1 minus the level-2 spans.

// background is the context every in-process call runs under.
var background = context.Background()

// layer names a level-2 span; the request spans of every level are the
// drive loop's samples.
type layer uint8

const (
	spanParse     layer = iota
	spanAdmission       // Acquire and Release, two spans per request
	spanPlanHit
	spanPlanMiss
	spanAnalyze     // inside plan: Trace.AnalyzeTime
	spanFingerprint // inside plan: plancache.Of, timed separately
	spanBuild
	spanExec
	spanRender
	spanEncode
	numLayers
)

var layerNames = [numLayers]string{
	"parse.Expr", "Admission.Acquire/Release",
	"Optimizer.PlanQueryTrace(hit)", "Optimizer.PlanQueryTrace(miss)",
	"core.Analyze", "plancache.Of",
	"Optimizer.Build", "exec.CollectCtx", "Relation.String", "json.Marshal",
}

// span is one timed interval of the traced pass. Its parent is the
// request span of the same req at the same level, except analyze and
// fingerprint, whose parent is that request's plan span.
type span struct {
	name       layer
	req        int32
	start, end int64 // ns since epoch
}

// sessionLevel is level 1: one server.Session per client over the
// served core, configured like the wire sessions.
type sessionLevel struct {
	sessions [][]*server.Session // [client][strategy], as env.conns
}

func newSessionLevel(e *env) (*sessionLevel, error) {
	l := &sessionLevel{}
	for ci := 0; ci < e.w.clients; ci++ {
		var sessions []*server.Session
		for _, strategy := range e.strategies {
			s := server.NewSession(e.srv.Core())
			for _, cmd := range e.w.prelude(strategy, e.sz) {
				if r := s.Exec(background, cmd); !r.OK {
					return nil, fmt.Errorf("level 1 %q: %s", cmd, r.Error)
				}
			}
			sessions = append(sessions, s)
		}
		l.sessions = append(l.sessions, sessions)
	}
	return l, nil
}

func (l *sessionLevel) do(ci int, _ int32, q *query) (reply, error) {
	resp := l.sessions[ci][q.session].SafeExec(background, q.line)
	if _, err := json.Marshal(resp); err != nil {
		return reply{}, err
	}
	return replyOf(resp), nil
}

func replyOf(r server.Response) reply {
	return reply{OK: r.OK, Rows: r.Rows, Tuples: r.Tuples, Cache: r.Cache, Error: r.Error, Code: r.Code}
}

// layerLevel is level 2: the layer calls of one query, sequenced as
// Session.runQuery sequences them.
type layerLevel struct {
	e        *env
	memLimit int64
	graphs   []*graph.Graph // per query, for the separately timed fingerprint
	spans    [][]span       // per client
}

func newLayerLevel(e *env) (*layerLevel, error) {
	l := &layerLevel{e: e, spans: make([][]span, e.w.clients)}
	if e.w.spill {
		n, err := parse.Bytes(e.sz.spillLimit)
		if err != nil {
			return nil, err
		}
		l.memLimit = n
	}
	for i := range e.queries {
		q, err := parse.Expr(exprOf(e.queries[i].line))
		if err != nil {
			return nil, err
		}
		a, err := core.Analyze(q)
		if err != nil {
			return nil, err
		}
		l.graphs = append(l.graphs, a.Graph)
	}
	return l, nil
}

func exprOf(line string) string { return strings.TrimPrefix(line, "query ") }

func (l *layerLevel) do(ci int, req int32, q *query) (reply, error) {
	c := l.e.srv.Core()
	rec := func(name layer, start int64) int64 {
		end := now()
		l.spans[ci] = append(l.spans[ci], span{name: name, req: req, start: start, end: end})
		return end
	}

	t := now()
	expr, err := parse.Expr(exprOf(q.line))
	if err != nil {
		return reply{}, err
	}
	t = rec(spanParse, t)

	grant, err := c.Admission().Acquire(background, l.memLimit, 0)
	if err != nil {
		return reply{}, err
	}
	t = rec(spanAdmission, t)

	o := optimizer.New(c.Catalog())
	o.Cache = c.Plans()
	o.Spill = l.e.w.spill
	o.Strategy = q.strategy
	planStart := t
	p, tr, err := o.PlanQueryTrace(expr)
	if err != nil {
		grant.Release()
		return reply{}, err
	}
	planSpan := spanPlanMiss
	if tr.CacheOutcome == "hit" {
		planSpan = spanPlanHit
	}
	t = rec(planSpan, t)
	l.spans[ci] = append(l.spans[ci], span{name: spanAnalyze, req: req,
		start: planStart, end: planStart + int64(tr.AnalyzeTime)})

	var gov *exec.Governor
	if grant.Bytes() > 0 {
		gov = exec.NewGovernor(0, grant.Bytes())
	}
	ec := exec.NewExecContext(background, gov)
	if l.e.w.spill {
		ec.EnableSpill(exec.SpillConfig{Dir: l.e.spillDir})
	}
	var counters exec.Counters
	t = now()
	it, err := o.Build(p, &counters)
	if err != nil {
		grant.Release()
		return reply{}, err
	}
	t = rec(spanBuild, t)
	out, err := exec.CollectCtx(ec, it, &counters)
	if err != nil {
		grant.Release()
		return reply{}, err
	}
	t = rec(spanExec, t)
	resp := server.Response{OK: true, Output: out.String(), Rows: int64(out.Len()),
		Tuples: counters.TuplesRetrieved(), Cache: tr.CacheOutcome}
	t = rec(spanRender, t)
	grant.Release()
	t = rec(spanAdmission, t)
	if _, err := json.Marshal(resp); err != nil {
		return reply{}, err
	}
	rec(spanEncode, t)
	return replyOf(resp), nil
}

// fingerprintTimes times plancache.Of on every query's graph, outside
// the request replay: the fingerprint runs inside PlanQueryTrace, where
// the benchmark cannot put a clock around it.
func (l *layerLevel) fingerprintTimes() []time.Duration {
	const reps = 15
	out := make([]time.Duration, len(l.graphs))
	ds := make([]float64, reps)
	for i, g := range l.graphs {
		for r := range ds {
			t := time.Now()
			plancache.Of(g)
			ds[r] = float64(time.Since(t))
		}
		out[i] = time.Duration(median(ds))
	}
	return out
}
