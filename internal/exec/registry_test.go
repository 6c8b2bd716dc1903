package exec

import (
	"testing"

	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// The shared operator inventory. Every physical operator is registered
// here, the batched ones at the default batch size and (the batch*
// cases) at two rows per batch, and the generic suites are all driven
// off this one
// map — the iterator contract (contract_test.go), the per-child
// fault-injection matrix, the failed-Open governor drain, and the
// cancelled-context fail-fast check (faults_test.go). Adding an
// operator means adding one entry; the suites pick it up without any
// further hand-maintained lists.

// opCase describes one operator: how many fault-injectable child
// positions it has and how to build it over those children. Position 0
// reads R, position 1 (binary operators) reads S. Leaf operators have
// no child position; their error paths are exercised by the context
// tests in faults_test.go.
type opCase struct {
	children int
	build    func(t *testing.T, ch []Iterator) Iterator
}

// operatorRegistry enumerates every physical operator over the shared
// contract tables (see contractTables). Each build must produce a
// non-empty result on clean children, so the contract suite can tell a
// working operator from one that silently emits nothing.
func operatorRegistry(t *testing.T, rt, st *storage.Table, c *Counters) map[string]opCase {
	t.Helper()
	rk := relation.A("R", "k")
	sk := relation.A("S", "k")
	key := predicate.Eq(rk, sk)
	lt := predicate.Cmp(predicate.LtOp, predicate.Col(rk), predicate.Col(sk))
	must := func(it Iterator, err error) Iterator {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return it
	}
	cases := map[string]opCase{
		"scan":         {0, func(t *testing.T, ch []Iterator) Iterator { return NewBatchScan(rt, c, 0) }},
		"relationscan": {0, func(t *testing.T, ch []Iterator) Iterator { return NewRelationScan(rt.Relation()) }},
		"indexscan": {0, func(t *testing.T, ch []Iterator) Iterator {
			return must(NewIndexScan(st, "k", relation.Int(2), c))
		}},
		"filter": {1, func(t *testing.T, ch []Iterator) Iterator {
			return must(NewBatchFilter(ch[0],
				predicate.Cmp(predicate.GtOp, predicate.Col(rk), predicate.Const(relation.Int(1))), 0))
		}},
		"nestedloop": {2, func(t *testing.T, ch []Iterator) Iterator {
			return must(NewBatchNestedLoopJoin(ch[0], ch[1], key, InnerMode, nil, 0))
		}},
		"indexjoin": {1, func(t *testing.T, ch []Iterator) Iterator {
			return must(NewBatchIndexJoin(ch[0], st, "k", rk, nil, InnerMode, nil, c, 0))
		}},
		"hashgoj": {2, func(t *testing.T, ch []Iterator) Iterator {
			return must(NewHashGOJ(ch[0], ch[1],
				[]relation.Attr{rk}, []relation.Attr{sk}, []relation.Attr{rk, relation.A("R", "v")}))
		}},
		"semireduce": {2, func(t *testing.T, ch []Iterator) Iterator {
			// Pure equi predicate: the hash-filter fast path.
			return must(NewBatchSemiReduce(ch[0], ch[1], key, 0))
		}},
		"semireduce-scan": {2, func(t *testing.T, ch []Iterator) Iterator {
			// Non-equi predicate: the nested-loop semijoin it lowers to.
			return must(NewBatchNestedLoopJoin(ch[0], ch[1], lt, SemiMode, nil, 0))
		}},
		"instrumented": {1, func(t *testing.T, ch []Iterator) Iterator {
			return Instrument(ch[0], "probe", c)
		}},
		"fault": {1, func(t *testing.T, ch []Iterator) Iterator {
			return storage.NewFaultIterator(ch[0], storage.Fault{})
		}},
	}
	// The cases above and the hash join run at the default batch size,
	// where the 5-row inputs fit one batch; the batch* cases below refill
	// every 2 rows.
	for name, mode := range map[string]JoinMode{
		"hashjoin": InnerMode, "hashjoin-outer": LeftOuterMode, "hashjoin-semi": SemiMode, "hashjoin-anti": AntiMode,
	} {
		mode := mode
		cases[name] = opCase{2, func(t *testing.T, ch []Iterator) Iterator {
			return must(NewBatchHashJoin(ch[0], ch[1], []relation.Attr{rk}, []relation.Attr{sk}, nil, mode, nil, 0))
		}}
	}
	// The operators run through the contract/fault/ownership suites via
	// their Iterator side (Next over the batch cursor). A tiny batch size
	// forces multiple refills over the 5-row inputs.
	const bsz = 2
	cases["batchscan"] = opCase{0, func(t *testing.T, ch []Iterator) Iterator { return NewBatchScan(rt, c, bsz) }}
	cases["batchfilter"] = opCase{1, func(t *testing.T, ch []Iterator) Iterator {
		return must(NewBatchFilter(ch[0],
			predicate.Cmp(predicate.GtOp, predicate.Col(rk), predicate.Const(relation.Int(1))), bsz))
	}}
	cases["batchsemireduce"] = opCase{2, func(t *testing.T, ch []Iterator) Iterator {
		return must(NewBatchSemiReduce(ch[0], ch[1], key, bsz))
	}}
	cases["batchsemireduce-scan"] = opCase{2, func(t *testing.T, ch []Iterator) Iterator {
		return must(NewBatchNestedLoopJoin(ch[0], ch[1], lt, SemiMode, nil, bsz))
	}}
	cases["spool"] = opCase{1, func(t *testing.T, ch []Iterator) Iterator {
		// One reader over one child: its Close is the last, so every
		// cycle fills the spool and drops its rows.
		return NewSpool(ch[0], bsz).Reader()
	}}
	cases["batchindexjoin"] = opCase{1, func(t *testing.T, ch []Iterator) Iterator {
		return must(NewBatchIndexJoin(ch[0], st, "k", rk, nil, InnerMode, nil, c, bsz))
	}}
	for name, mode := range map[string]JoinMode{
		"batchhashjoin": InnerMode, "batchhashjoin-outer": LeftOuterMode,
		"batchhashjoin-semi": SemiMode, "batchhashjoin-anti": AntiMode,
	} {
		mode := mode
		cases[name] = opCase{2, func(t *testing.T, ch []Iterator) Iterator {
			return must(NewBatchHashJoin(ch[0], ch[1], []relation.Attr{rk}, []relation.Attr{sk}, nil, mode, nil, bsz))
		}}
	}
	for name, mode := range map[string]JoinMode{
		"batchnestedloop": InnerMode, "batchnestedloop-outer": LeftOuterMode,
		"batchnestedloop-semi": SemiMode, "batchnestedloop-anti": AntiMode,
	} {
		mode := mode
		cases[name] = opCase{2, func(t *testing.T, ch []Iterator) Iterator {
			return must(NewBatchNestedLoopJoin(ch[0], ch[1], key, mode, nil, bsz))
		}}
	}
	return cases
}

// buildChildren vends fault-wrapped scans: position at gets the fault,
// the others are clean wrappers (so their lifecycle is audited too).
func buildChildren(rt, st *storage.Table, n, at int, f storage.Fault) ([]Iterator, []*storage.FaultIterator) {
	tables := []*storage.Table{rt, st}
	ch := make([]Iterator, n)
	fis := make([]*storage.FaultIterator, n)
	for i := 0; i < n; i++ {
		cfg := storage.Fault{}
		if i == at {
			cfg = f
		}
		fi := storage.NewFaultTable(tables[i], cfg).Iterator()
		ch[i], fis[i] = fi, fi
	}
	return ch, fis
}
