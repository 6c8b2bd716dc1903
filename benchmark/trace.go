package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// The traced pass replays the request sequence at three nested levels
// and times every level from outside the program:
//
//	level 0  client.request        the TCP round trip
//	level 1  server.session_exec   Session.Exec + json.Marshal, in-process
//	level 2  one span per layer    the calls runQuery makes, in its order
//
// The same request (same position in the sequence, same query) runs at
// every level, so a level's self time is its span minus the level
// below. Spans stay in memory and are written when the pass ends.

type tracedPass struct {
	levels [3][]sample // request spans per level, by request id
	spans  []span      // level-2 layer spans
	fpTime []time.Duration
	qps    float64 // level-0 requests per second, tracing on
}

// trace runs the three levels from position first of the sequence.
// Level 0 is time-bound; levels 1 and 2 replay exactly the requests
// level 0 completed.
func (e *env) trace(first int, dur time.Duration) (*tracedPass, error) {
	tp := &tracedPass{}
	var err error
	start := now()
	if tp.levels[0], err = e.drive(e.wireDo, first, start+int64(dur/3), 0); err != nil {
		return nil, err
	}
	n := len(tp.levels[0])
	if n == 0 {
		return nil, fmt.Errorf("traced pass: no request completed in %v", dur/3)
	}
	tp.qps = float64(n) / (float64(now()-start) / 1e9)

	l1, err := newSessionLevel(e)
	if err != nil {
		return nil, err
	}
	if tp.levels[1], err = e.drive(l1.do, first, 0, n); err != nil {
		return nil, err
	}
	l2, err := newLayerLevel(e)
	if err != nil {
		return nil, err
	}
	if tp.levels[2], err = e.drive(l2.do, first, 0, n); err != nil {
		return nil, err
	}
	for _, s := range l2.spans {
		tp.spans = append(tp.spans, s...)
	}
	tp.fpTime = l2.fingerprintTimes()
	return tp, nil
}

// timeMetrics reduces the spans to the per-layer times. Every time is
// taken per query template as the median over that template's requests,
// then averaged over templates weighted by how often each was sent, so
// a mix of templates with different costs still adds up: per template,
// request = wire self + session self + the level-2 spans. A self time
// that comes out negative (a child measured longer than its parent) is
// clamped to 0 and counted in trace.unreconciled_share.
func (tp *tracedPass) timeMetrics(e *env, untracedQPS float64) map[string]float64 {
	us := func(start, end int64) float64 { return float64(end-start) / 1e3 }
	var tpls []string
	group := make([]int, len(e.queries)) // query -> template index
	for q := range e.queries {
		group[q] = slices.Index(tpls, e.queries[q].tpl)
		if group[q] < 0 {
			group[q] = len(tpls)
			tpls = append(tpls, e.queries[q].tpl)
		}
	}

	// Request spans per level and template.
	var reqDur [3][][]float64
	for lv := range reqDur {
		reqDur[lv] = make([][]float64, len(tpls))
		for _, s := range tp.levels[lv] {
			g := group[s.q]
			reqDur[lv][g] = append(reqDur[lv][g], us(s.start, s.end))
		}
	}
	// Level-2 spans: total per request and layer (admission has two
	// spans per request), then grouped by template. Level 2 replayed
	// requests 0..n-1 and drive returns them in that order, so the
	// request id indexes both slices.
	perReq := make([][numLayers]float64, len(tp.levels[2]))
	for _, s := range tp.spans {
		perReq[s.req][s.name] += us(s.start, s.end)
	}
	var layerDur [numLayers][][]float64
	for i := range layerDur {
		layerDur[i] = make([][]float64, len(tpls))
	}
	fpDur := make([][]float64, len(tpls))
	for req, s := range tp.levels[2] {
		g := group[s.q]
		fpDur[g] = append(fpDur[g], us(0, int64(tp.fpTime[s.q])))
		for name, d := range perReq[req] {
			if d > 0 {
				layerDur[name][g] = append(layerDur[name][g], d)
			}
		}
	}

	// Weighted means of per-template medians.
	var weight, request, wireSelf, sessSelf, negative float64
	var layerSum [numLayers]float64
	var hitW, missW, hitSum, missSum, dpSum, fpSum float64
	for g := range tpls {
		w := float64(len(reqDur[0][g]))
		m0, m1 := median(reqDur[0][g]), median(reqDur[1][g])
		var med [numLayers]float64
		for i := range med {
			med[i] = median(layerDur[i][g])
		}
		fp := median(fpDur[g])
		hits, misses := float64(len(layerDur[spanPlanHit][g])), float64(len(layerDur[spanPlanMiss][g]))
		plan := ratio(hits*med[spanPlanHit]+misses*med[spanPlanMiss], hits+misses)
		children := med[spanParse] + med[spanAdmission] + plan + med[spanBuild] +
			med[spanExec] + med[spanRender] + med[spanEncode]

		weight += w
		request += w * m0
		ws, ss := m0-m1, m1-children
		if ws < 0 {
			negative -= w * ws
			ws = 0
		}
		if ss < 0 {
			negative -= w * ss
			ss = 0
		}
		wireSelf += w * ws
		sessSelf += w * ss
		for i := range med {
			layerSum[i] += w * med[i]
		}
		fpSum += w * fp
		hw, mw := w*ratio(hits, hits+misses), w*ratio(misses, hits+misses)
		hitW += hw
		missW += mw
		hitSum += hw * med[spanPlanHit]
		missSum += mw * med[spanPlanMiss]
		if dp := med[spanPlanMiss] - med[spanAnalyze] - fp; dp > 0 {
			dpSum += mw * dp
		}
	}
	var all []float64
	for _, ds := range reqDur[0] {
		all = append(all, ds...)
	}
	mean := func(sum float64) float64 { return ratio(sum, weight) }
	return map[string]float64{
		"trace.latency_p50_us":     median(all),
		"trace.request_us":         mean(request),
		"wire.self_us":             mean(wireSelf),
		"server.session_self_us":   mean(sessSelf),
		"server.admission_us":      mean(layerSum[spanAdmission]),
		"server.encode_json_us":    mean(layerSum[spanEncode]),
		"relation.render_us":       mean(layerSum[spanRender]),
		"parse.expr_us":            mean(layerSum[spanParse]),
		"core.analyze_us":          mean(layerSum[spanAnalyze]),
		"plancache.fingerprint_us": mean(fpSum),
		"optimizer.plan_hit_us":    ratio(hitSum, hitW),
		"optimizer.plan_miss_us":   ratio(missSum, missW),
		"optimizer.dp_us":          ratio(dpSum, missW),
		"optimizer.build_us":       mean(layerSum[spanBuild]),
		"exec.run_us":              mean(layerSum[spanExec]),
		"trace.overhead_share":     1 - ratio(tp.qps, untracedQPS),
		"trace.unreconciled_share": ratio(negative, request),
	}
}

// traceFileRequests bounds the trace file: the first requests of every
// level are written, all requests feed the metrics.
const traceFileRequests = 2000

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeFile writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev). One track per level and client;
// args carry the request id and the parent span's name.
func (tp *tracedPass) writeFile(e *env, path string) error {
	origin := tp.levels[0][0].start
	clients := int32(e.w.clients)
	levelNames := [3]string{"client.request", "server.session_exec", "layers.request"}
	var evs []traceEvent
	add := func(name string, level int, req int32, start, end int64, args map[string]any) {
		args["req"] = req
		evs = append(evs, traceEvent{
			Name: name, Cat: fmt.Sprintf("level%d", level), Ph: "X",
			Ts: float64(start-origin) / 1e3, Dur: float64(end-start) / 1e3,
			Pid: 1, Tid: level*10 + int(req%clients), Args: args,
		})
	}
	for lv, samples := range tp.levels {
		for _, s := range samples {
			if s.req < traceFileRequests {
				add(levelNames[lv], lv, s.req, s.start, s.end,
					map[string]any{"query": e.queries[s.q].tpl, "parent": nil})
			}
		}
	}
	for _, s := range tp.spans {
		if s.req >= traceFileRequests {
			continue
		}
		if s.name != spanAnalyze {
			add(layerNames[s.name], 2, s.req, s.start, s.end, map[string]any{"parent": levelNames[2]})
			continue
		}
		// The two spans inside PlanQueryTrace were not clocked in place:
		// analyze is the duration the optimizer's own trace reports, the
		// fingerprint was timed separately; both are laid out from the
		// plan span's start.
		const plan = "Optimizer.PlanQueryTrace"
		add(layerNames[spanAnalyze], 2, s.req, s.start, s.end, map[string]any{"parent": plan, "synthetic": true})
		add(layerNames[spanFingerprint], 2, s.req, s.end, s.end+int64(tp.fpTime[tp.levels[2][s.req].q]),
			map[string]any{"parent": plan, "synthetic": true})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
