package server

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"freejoin/internal/obs"
	"freejoin/internal/relation"
	"freejoin/internal/workload"
)

// TestServerConcurrentSoak is the mixed-traffic soak: 16 clients (half
// over TCP, half in-process sessions) hammer one shared core with five
// traffic classes at once — prepared plan-cache hits, cold misses,
// governor-tripping queries, spilling queries and immediately-cancelled
// queries — under a deliberately small admission configuration so
// queueing, shedding and backpressure all happen concurrently.
//
// Invariants checked:
//   - every OK result is bag-correct against a single-threaded reference
//     (in-process clients compare full relations, TCP clients row counts)
//   - the tracer reconciles: started = completed + failed + rejected,
//     and no query is left active
//   - admission never overcommits and ends fully drained
//   - no spill run file and no goroutine outlives the server
func TestServerConcurrentSoak(t *testing.T) {
	const (
		clients   = 16
		perClient = 15
		slots     = 4
		queue     = 4
	)
	spillDir := t.TempDir()
	srv := startTestServer(t, Config{
		MaxConcurrent: slots,
		QueueDepth:    queue,
		PoolBytes:     1 << 20,
		SpillDir:      spillDir,
	})
	core := srv.Core()

	// Shared database and query mix from the metamorphic generator.
	rnd := rand.New(rand.NewSource(42))
	queries, names := workload.QueryMix(rnd, 12)
	for _, name := range names {
		core.Catalog().AddRelation(name, workload.RandomRelation(rnd, name, 60))
	}

	// Single-threaded reference results (also warms the plan cache).
	refSess := NewSession(core)
	refs := make([]*relation.Relation, len(queries))
	for i, q := range queries {
		resp, rel := refSess.runQuery(context.Background(), "ref", q, false)
		if !resp.OK {
			t.Fatalf("reference run of %q failed: %s", q, resp.Error)
		}
		refs[i] = rel
	}

	started0 := obs.QueriesStarted.Value()
	completed0 := obs.QueriesCompleted.Value()
	failed0 := obs.QueriesFailed.Value()
	rejected0 := obs.QueriesRejected.Value()
	active0 := obs.QueriesActive.Value()
	conns0 := obs.ServerConnectionsActive.Value()
	qdepth0 := obs.AdmissionQueueDepth.Value()
	goroutines0 := runtime.NumGoroutine()

	// TCP clients: one connection each, configured for their class.
	tcp := make([]*testClient, clients/2)
	for i := range tcp {
		tcp[i] = dialServer(t, srv.Addr())
		configureTCPClient(t, tcp[i], workload.KindFor(nil, i), queries)
	}
	// Every dialed connection is on the books (the hello implies the
	// server registered it before serving).
	if d := obs.ServerConnectionsActive.Value() - conns0; d != int64(len(tcp)) {
		t.Errorf("oj_server_connections_active delta = %d after dialing, want %d", d, len(tcp))
	}
	// In-process clients: one session each over the same core.
	sessions := make([]*Session, clients/2)
	for i := range sessions {
		sessions[i] = NewSession(core)
		configureSession(sessions[i], workload.KindFor(nil, i))
	}

	var mu sync.Mutex // guards bag-equality failures collected from goroutines
	var bagErrs []string
	d := &workload.Driver{
		Clients:   clients,
		PerClient: perClient,
		Exec: func(client, iter int) workload.Outcome {
			qi := (client*perClient + iter) % len(queries)
			if client < clients/2 {
				return tcpRequest(tcp[client], workload.KindFor(nil, client), qi, queries[qi], refs[qi], &mu, &bagErrs)
			}
			sess := sessions[client-clients/2]
			kind := workload.KindFor(nil, client-clients/2)
			return sessionRequest(sess, kind, queries[qi], refs[qi], &mu, &bagErrs)
		},
	}
	rep := d.Run()
	for _, e := range bagErrs {
		t.Error(e)
	}
	t.Logf("soak: %s", rep)

	if rep.Total != clients*perClient {
		t.Fatalf("drove %d requests, want %d", rep.Total, clients*perClient)
	}
	if rep.OK() == 0 {
		t.Fatal("soak produced no successful queries")
	}
	if rep.Failed() == 0 {
		t.Fatal("cancelled class produced no failures — the mix is not mixed")
	}

	// Tracer reconciliation over exactly the driver's queries.
	started := obs.QueriesStarted.Value() - started0
	completed := obs.QueriesCompleted.Value() - completed0
	failed := obs.QueriesFailed.Value() - failed0
	rejected := obs.QueriesRejected.Value() - rejected0
	if started != int64(rep.Total) {
		t.Errorf("tracer started %d queries, driver sent %d", started, rep.Total)
	}
	if started != completed+failed+rejected {
		t.Errorf("tracer does not reconcile: started %d != completed %d + failed %d + rejected %d",
			started, completed, failed, rejected)
	}
	if int64(rep.OK()) != completed || int64(rep.Rejected()) != rejected {
		t.Errorf("driver/tracer disagree: ok %d vs completed %d, rejected %d vs %d",
			rep.OK(), completed, rep.Rejected(), rejected)
	}
	if act := obs.QueriesActive.Value() - active0; act != 0 {
		t.Errorf("%d queries still active after the soak", act)
	}

	// Admission fully drained, and the queue-depth gauge agrees.
	if st := core.Admission().Stats(); st.Active != 0 || st.Queued != 0 || st.UsedBytes != 0 || st.UsedSpillBytes != 0 {
		t.Errorf("admission not drained: %+v", st)
	}
	if d := obs.AdmissionQueueDepth.Value() - qdepth0; d != 0 {
		t.Errorf("oj_admission_queue_depth did not drain: delta %d", d)
	}

	// Shut everything down; nothing may leak.
	for _, c := range tcp {
		c.send("quit")
		c.conn.Close()
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Connection teardown is asynchronous (each serveConn decrements on
	// its way out), so the gauge drains shortly after Close.
	waitFor(t, "oj_server_connections_active drained", func() bool {
		return obs.ServerConnectionsActive.Value() == conns0
	})
	if runs, _ := filepath.Glob(filepath.Join(spillDir, "ojspill-*")); len(runs) != 0 {
		t.Errorf("%d spill run files leaked: %v", len(runs), runs)
	}
	waitForGoroutines(t, goroutines0)
}

// configureTCPClient applies a traffic class to a protocol session.
func configureTCPClient(t *testing.T, c *testClient, kind workload.MixKind, queries []string) {
	t.Helper()
	switch kind {
	case workload.KindPreparedHit:
		for i, q := range queries {
			c.mustOK(fmt.Sprintf("prepare q%d %s", i, q))
		}
	case workload.KindColdMiss:
		c.mustOK("set plan_cache off")
	case workload.KindGovernorTrip:
		c.mustOK("set memory_limit 64B")
	case workload.KindSpilling:
		c.mustOK("set memory_limit 512B")
		c.mustOK("set spill on")
	case workload.KindCancelled:
		c.mustOK("set timeout 1ns")
	}
}

// configureSession applies a traffic class to an in-process session.
func configureSession(s *Session, kind workload.MixKind) {
	switch kind {
	case workload.KindColdMiss:
		s.useCache = false
	case workload.KindGovernorTrip:
		s.memLimit = 64
	case workload.KindSpilling:
		s.memLimit = 512
		s.spill = true
	case workload.KindCancelled:
		s.timeout = time.Nanosecond
	}
}

// tcpRequest issues one protocol query and classifies the outcome,
// checking row counts for successes.
func tcpRequest(c *testClient, kind workload.MixKind, qi int, query string, ref *relation.Relation, mu *sync.Mutex, bagErrs *[]string) workload.Outcome {
	var r Response
	if kind == workload.KindPreparedHit {
		r = c.send(fmt.Sprintf("execute q%d", qi))
	} else {
		r = c.send("query " + query)
	}
	switch {
	case r.OK:
		if int(r.Rows) != ref.Len() {
			mu.Lock()
			*bagErrs = append(*bagErrs, fmt.Sprintf("%s(%s): got %d rows, reference %d", kind, query, r.Rows, ref.Len()))
			mu.Unlock()
		}
		return workload.OutcomeOK
	case r.Code == CodeAdmissionRejected:
		return workload.OutcomeRejected
	default:
		return workload.OutcomeFailed
	}
}

// sessionRequest issues one in-process query and compares full bags on
// success.
func sessionRequest(s *Session, kind workload.MixKind, query string, ref *relation.Relation, mu *sync.Mutex, bagErrs *[]string) workload.Outcome {
	resp, rel := s.runQuery(context.Background(), string(kind)+" "+query, query, false)
	switch {
	case resp.OK:
		if !rel.EqualBag(ref) {
			mu.Lock()
			*bagErrs = append(*bagErrs, fmt.Sprintf("%s(%s): result diverges from reference bag", kind, query))
			mu.Unlock()
		}
		return workload.OutcomeOK
	case resp.Code == CodeAdmissionRejected:
		return workload.OutcomeRejected
	default:
		return workload.OutcomeFailed
	}
}

// waitForGoroutines polls until the goroutine count settles back to the
// baseline (small slack for runtime helpers), failing after 5s.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			stacks := string(buf[:runtime.Stack(buf, true)])
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", baseline, n,
				clipStacks(stacks))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func clipStacks(s string) string {
	if len(s) > 4000 {
		return s[:4000] + "\n...(clipped)"
	}
	return s
}
