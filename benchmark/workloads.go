package main

import (
	"fmt"
	"math/rand"
)

// query is one request of a workload's cycle.
type query struct {
	tpl  string // template name, for client.tpl.<tpl>.p50_ms
	key  string // plan identity: queries with one key share a plan-cache entry
	line string // the protocol command
	// strategy is the planner strategy of the session the query is sent
	// on ("" = the server's default, dp). A client keeps one connection
	// per strategy its cycle uses and still has one request in flight.
	strategy string
	session  int // index of strategy among the cycle's distinct ones
	// wantRows is the reference algebra's row count, filled by the
	// oracle and checked on every timed response.
	wantRows int64
}

// catalog is what set-up loads before the first request.
type catalog struct {
	tables  []table
	indexes [][2]string // table, column
	queries []query
}

// sizes scales a workload; smoke sizes keep the tier-1 test short.
type sizes struct {
	smallRows  int    // point_hit's nice-graph tables
	bigRows    int    // Example 1's R2/R3
	scanRows   int    // scan_join's and spill_join's fixed-template tables
	dangRows   int    // scan_join's dangling tables
	wideRows   int    // wide_result's tables
	coldGraphs int    // plan_cold's distinct graphs
	coldCache  int    // plan_cold's plan-cache capacity
	spillLimit string // spill_join's "set memory_limit": about one hash build of scanRows
}

var (
	fullSizes  = sizes{smallRows: 20, bigRows: 50000, scanRows: 8000, dangRows: 3000, wideRows: 6000, coldGraphs: 512, coldCache: 64, spillLimit: "512KB"}
	smokeSizes = sizes{smallRows: 12, bigRows: 400, scanRows: 1600, dangRows: 400, wideRows: 400, coldGraphs: 48, coldCache: 6, spillLimit: "96KB"}
)

// workload is one traffic mix with the server settings it runs under.
type workload struct {
	name string
	why  string

	clients int  // closed loops, each with one request in flight
	spill   bool // "set memory_limit <sizes.spillLimit>" and "set spill on"
	// planCache is the server's plan-cache capacity (nil = its default).
	planCache func(sz sizes) int

	build func(rnd *rand.Rand, sz sizes) catalog
	// guard checks that the run engaged the mechanism the workload
	// exists to measure, from the per-layer counts of the measured
	// window and the strategies the server reported. Smoke runs relax
	// thresholds to "path engaged".
	guard func(r *result, smoke bool) error
}

// prelude is the per-session configuration sent after connecting.
func (w *workload) prelude(strategy string, sz sizes) []string {
	var p []string
	if strategy != "" {
		p = append(p, "set strategy "+strategy)
	}
	if w.spill {
		p = append(p, "set memory_limit "+sz.spillLimit, "set spill on")
	}
	return p
}

var workloads = []*workload{
	{
		name:    "point_hit",
		why:     "tiny cached queries: parse, admission, fingerprint, tracer, JSON and the socket do the work; exec and the DP do almost none",
		clients: 2,
		build:   buildPointHit,
		guard: func(r *result, smoke bool) error {
			return atLeast(r.PerLayer, "plancache.hit_ratio", 0.99)
		},
	},
	{
		name:      "plan_cold",
		why:       "working set of 7-relation graphs 8x the plan cache: parse, analyze, fingerprint, DP and evict dominate; bypasses every hit-path gain",
		clients:   2,
		planCache: func(sz sizes) int { return sz.coldCache },
		build:     buildPlanCold,
		guard: func(r *result, smoke bool) error {
			most := 0.01
			if smoke {
				most = 0.10 // 6 entries for 48 graphs: the faster client's lead is a visible share
			}
			if hit := r.PerLayer["plancache.hit_ratio"]; hit > most {
				return fmt.Errorf("plancache.hit_ratio = %g, want <= %g", hit, most)
			}
			return above(r.PerLayer, "plancache.evictions_per_query", 0)
		},
	},
	{
		name:    "scan_join",
		why:     "un-indexed hash joins of 3,000-8,000-row tables with small results: batch scan, hash build/probe and semireduce do the work; plan choice shows here",
		clients: 1,
		build:   buildScanJoin,
		guard: func(r *result, smoke bool) error {
			for _, name := range []string{"spill.bytes_per_query", "resource.governor_trips_per_query"} {
				if v := r.PerLayer[name]; v != 0 {
					return fmt.Errorf("%s = %g, want 0", name, v)
				}
			}
			if got := r.Strategies["dangling_tree5"]; got != "yannakakis" {
				return fmt.Errorf("dangling_tree5 planned with strategy %q, want yannakakis", got)
			}
			return above(r.PerLayer, "optimizer.yannakakis_share", 0)
		},
	},
	{
		name:    "spill_join",
		why:     "scan_join's fixed templates on the same tables under a 512KB grant with spill on: memory trip, grace hash, spill codec and file I/O",
		clients: 1,
		spill:   true,
		build:   buildSpillJoin,
		guard: func(r *result, smoke bool) error {
			return above(r.PerLayer, "spill.bytes_per_query", 0)
		},
	},
	{
		name:    "wide_result",
		why:     "one outerjoin preserving 6,000 rows of 4 wide columns: Relation.String, json.Marshal and a 250KB socket write dominate; bypasses the planner",
		clients: 1,
		build:   buildWideResult,
		guard: func(r *result, smoke bool) error {
			if smoke {
				return above(r.PerLayer, "wire.bytes_per_query", 0)
			}
			return atLeast(r.PerLayer, "wire.bytes_per_query", 128<<10)
		},
	},
}

func atLeast(m map[string]float64, name string, min float64) error {
	if m[name] < min {
		return fmt.Errorf("%s = %g, want >= %g", name, m[name], min)
	}
	return nil
}

func above(m map[string]float64, name string, min float64) error {
	if m[name] <= min {
		return fmt.Errorf("%s = %g, want > %g", name, m[name], min)
	}
	return nil
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// niceQueries draws count distinct graphs over a pool of tables and
// writes each as a random implementing tree.
func niceQueries(rnd *rand.Rand, pool []string, count int, pick func(i int) (tpl string, rels, core int, sh shape)) []query {
	seen := map[string]bool{}
	var qs []query
	for i := 0; len(qs) < count; i++ {
		tpl, n, core, sh := pick(len(qs))
		rels := make([]string, n)
		for j, p := range rnd.Perm(len(pool))[:n] {
			rels[j] = pool[p]
		}
		g := treeGraph(rnd, rels, core, sh)
		if seen[g.key()] {
			continue
		}
		seen[g.key()] = true
		qs = append(qs, query{tpl: tpl, key: g.key(), line: "query " + g.render(rnd)})
	}
	return qs
}

// buildPointHit: 16 nice graphs of 2-4 small relations plus the paper's
// Example 1 over hash-indexed tables, where the optimizer's tree
// retrieves 3 tuples and the written one would retrieve 2N+1.
func buildPointHit(rnd *rand.Rand, sz sizes) catalog {
	var c catalog
	pool := make([]string, 8)
	for i := range pool {
		pool[i] = fmt.Sprintf("P%d", i)
		c.tables = append(c.tables, keyedTable(rnd, pool[i], sz.smallRows, 1, 1))
	}
	c.queries = niceQueries(rnd, pool, 16, func(i int) (string, int, int, shape) {
		n := 2 + i%3
		return fmt.Sprintf("nice%d", n), n, 1 + rnd.Intn(n), shapeTree
	})

	n := sz.bigRows
	c.tables = append(c.tables,
		table{name: "R1", rows: [][2]int64{{int64(rnd.Intn(n)), int64(rnd.Intn(n))}}},
		keyedTable(rnd, "R2", n, 1, 1),
		keyedTable(rnd, "R3", n, 1, 1))
	c.indexes = [][2]string{{"R2", "a"}, {"R3", "a"}}
	c.queries = append(c.queries, query{tpl: "example1", key: "example1",
		line: "query R1 -[R1.a = R2.a] (R2 ->[R2.a = R3.a] R3)"})
	return c
}

// buildPlanCold: distinct 7-relation graphs (chain, star, random tree;
// a random prefix is the join core, the rest outerjoin trees) over
// 16-row tables, so planning is all a request costs.
func buildPlanCold(rnd *rand.Rand, sz sizes) catalog {
	var c catalog
	pool := make([]string, 12)
	for i := range pool {
		pool[i] = fmt.Sprintf("Q%d", i)
		c.tables = append(c.tables, keyedTable(rnd, pool[i], 16, 1, 1))
	}
	shapes := []struct {
		tpl string
		sh  shape
	}{{"chain7", shapeChain}, {"star7", shapeStar}, {"tree7", shapeTree}}
	c.queries = niceQueries(rnd, pool, sz.coldGraphs, func(i int) (string, int, int, shape) {
		s := shapes[i%len(shapes)]
		return s.tpl, 7, 1 + rnd.Intn(7), s.sh
	})
	return c
}

// scanTables are un-indexed tables T<step>: T<s> holds n/s rows whose
// key column a is the multiples of s below n, and whose b is s times a
// permutation. Joining T<i>.a with T<j>.a matches the common multiples,
// and the table sizes tell the optimizer so.
func scanTables(rnd *rand.Rand, n int, steps ...int64) []table {
	ts := make([]table, len(steps))
	for i, s := range steps {
		ts[i] = keyedTable(rnd, fmt.Sprintf("T%d", s), n/int(s), s, s)
	}
	return ts
}

// fixedScanQueries are chain3_outer (T20's n/20 keys all find their T1
// row, half of those find a T2 row: n/20 rows out) and star4_mixed (hub
// T1 joins T10 on n/10 keys and T3 on the third of them whose b is a
// multiple of 3, then outerjoins T2: about n/30 rows out), both planned
// under strategy auto.
//
// A cycle holds the cheaper templates more than once. With every
// template sent equally often, the median of the mix would sit on the
// gap between two templates' latencies and jump across it from run to
// run; weighted, p50 falls inside one template's requests and p95
// inside the dearest one's.
func fixedScanQueries(chains, stars int) []query {
	chain := query{tpl: "chain3_outer", key: "chain3_outer", strategy: "auto",
		line: "query (T20 -[T20.a = T1.a] T1) ->[T1.b = T2.a] T2"}
	star := query{tpl: "star4_mixed", key: "star4_mixed", strategy: "auto",
		line: "query ((T1 -[T1.a = T10.a] T10) -[T1.b = T3.a] T3) ->[T1.a = T2.a] T2"}
	var qs []query
	for i := 0; i < chains; i++ {
		qs = append(qs, chain)
	}
	for i := 0; i < stars; i++ {
		qs = append(qs, star)
	}
	return qs
}

// danglingTree5 is a 5-node tree: join chain D0 - D1 - D2 with outerjoin
// leaves D3 under D1 and D4 under D2. Shape and written tree are fixed,
// not drawn: the executor's tie-breaks (DP among equal estimates, the
// reducer's root) follow the written order, and where the leaves hang
// changes the work by a tenth, which would read as noise between seeds.
const danglingTree5 = "query (((D0 -[D0.a = D1.a] D1) -[D1.a = D2.a] D2) ->[D1.a = D3.a] D3) ->[D2.a = D4.a] D4"

// buildScanJoin: the two fixed templates plus danglingTree5 over
// 90%-dangling tables, sent twice: dangling_tree5 on a session forced to
// the Yannakakis reducer, and dangling_tree5_auto on the auto session,
// where the planner chooses.
func buildScanJoin(rnd *rand.Rand, sz sizes) catalog {
	c := catalog{tables: scanTables(rnd, sz.scanRows, 1, 2, 3, 10, 20), queries: fixedScanQueries(2, 2)}
	c.tables = append(c.tables, danglingTables(rnd, []string{"D0", "D1", "D2", "D3", "D4"},
		[][2]int{{0, 1}, {1, 2}}, sz.dangRows, sz.dangRows/20)...)
	c.queries = append(c.queries,
		query{tpl: "dangling_tree5", key: "dangling_tree5", strategy: "yannakakis", line: danglingTree5},
		query{tpl: "dangling_tree5_auto", key: "dangling_tree5_auto", strategy: "auto", line: danglingTree5})
	return c
}

// buildSpillJoin: scan_join's two fixed templates over the same tables.
func buildSpillJoin(rnd *rand.Rand, sz sizes) catalog {
	return catalog{tables: scanTables(rnd, sz.scanRows, 1, 2, 3, 10, 20), queries: fixedScanQueries(1, 2)}
}

// buildWideResult: every W1 row survives the outerjoin (half find a W2
// row), so the result is wideRows rows of 4 columns; keys and values
// are 7-9 digits wide so that the rendered table is bytes, not rows.
func buildWideResult(rnd *rand.Rand, sz sizes) catalog {
	return catalog{
		tables: []table{
			keyedTable(rnd, "W1", sz.wideRows, 1000, 100003),
			keyedTable(rnd, "W2", sz.wideRows, 2000, 100003),
		},
		queries: []query{{tpl: "wide_outer", key: "wide_outer",
			line: "query W1 ->[W1.a = W2.a] W2"}},
	}
}
