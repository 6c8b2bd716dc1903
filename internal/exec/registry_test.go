package exec

import (
	"testing"

	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// The shared operator inventory. Every physical operator is registered
// here once, and every registry suite runs each one at every size in
// registrySizes — the iterator contract (contract_test.go), the
// per-child fault-injection matrix, the failed-Open governor drain, and
// the cancelled-context fail-fast check (faults_test.go), the ownership
// probes (ownership_test.go), the span/stats property (spans_test.go)
// and the spill oracle (spill_exec_test.go). Adding an operator means
// adding one entry; the suites pick it up without any further
// hand-maintained lists.

// registrySizes are the batch sizes the registry builds each operator
// and its inputs at: the default, where the 5-row inputs fit one batch,
// and two rows, which refills every input and output batch several
// times. A two-row case's name takes the "batch" prefix (scan and
// batchscan), which keeps every recorded subtest name stable.
var registrySizes = []struct {
	prefix string
	size   int
}{{"", DefaultBatchSize}, {"batch", 2}}

// opCase describes one operator at one batch size: how many
// fault-injectable child positions it has and how to build it over
// those children. Position 0 reads R, position 1 (binary operators)
// reads S. Leaf operators have no child position; their error paths are
// exercised by the context tests in faults_test.go.
type opCase struct {
	children int
	size     int
	build    func(t *testing.T, ch []Iterator) Iterator
}

// operatorRegistry enumerates every physical operator over the shared
// contract tables (see contractTables), at every registry size. Each
// build must produce a non-empty result on clean children, so the
// contract suite can tell a working operator from one that silently
// emits nothing.
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
	type algo struct {
		children int
		build    func(t *testing.T, ch []Iterator, size int) Iterator
	}
	algos := map[string]algo{
		"scan": {0, func(t *testing.T, ch []Iterator, size int) Iterator { return NewBatchScan(rt, c, size) }},
		"relationscan": {0, func(t *testing.T, ch []Iterator, size int) Iterator {
			// An in-memory relation that is no catalog table (a
			// materialized intermediate): scanned, not counted.
			return NewBatchScan(storage.NewTable("R", rt.Relation()), nil, size)
		}},
		"indexscan": {0, func(t *testing.T, ch []Iterator, size int) Iterator {
			return must(NewBatchIndexScan(st, "k", relation.Int(2), c, size))
		}},
		"filter": {1, func(t *testing.T, ch []Iterator, size int) Iterator {
			return must(NewBatchFilter(ch[0],
				predicate.Cmp(predicate.GtOp, predicate.Col(rk), predicate.Const(relation.Int(1)))))
		}},
		"indexjoin": {1, func(t *testing.T, ch []Iterator, size int) Iterator {
			return must(NewBatchIndexJoin(ch[0], st, "k", rk, nil, InnerMode, nil, c, size))
		}},
		"hashgoj": {2, func(t *testing.T, ch []Iterator, size int) Iterator {
			return must(NewHashGOJ(ch[0], ch[1],
				[]relation.Attr{rk}, []relation.Attr{sk}, []relation.Attr{rk, relation.A("R", "v")}, size))
		}},
		"semireduce": {2, func(t *testing.T, ch []Iterator, size int) Iterator {
			// Pure equi predicate: the hash-filter fast path.
			return must(NewBatchSemiReduce(ch[0], ch[1], key, size))
		}},
		"semireduce-scan": {2, func(t *testing.T, ch []Iterator, size int) Iterator {
			// Non-equi predicate: the nested-loop semijoin it lowers to.
			return must(NewBatchNestedLoopJoin(ch[0], ch[1], lt, SemiMode, nil, size))
		}},
		"spool": {1, func(t *testing.T, ch []Iterator, size int) Iterator {
			// One reader over one child: its Close is the last, so every
			// cycle fills the spool and drops its rows.
			return NewSpool(ch[0], size).Reader()
		}},
		"instrumented": {1, func(t *testing.T, ch []Iterator, size int) Iterator {
			return Instrument(ch[0], "probe", c)
		}},
		"fault": {1, func(t *testing.T, ch []Iterator, size int) Iterator {
			return NewFaultIterator(ch[0], Fault{})
		}},
	}
	for suffix, mode := range map[string]JoinMode{"": InnerMode, "-outer": LeftOuterMode, "-semi": SemiMode, "-anti": AntiMode} {
		algos["hashjoin"+suffix] = algo{2, func(t *testing.T, ch []Iterator, size int) Iterator {
			return must(NewBatchHashJoin(ch[0], ch[1], []relation.Attr{rk}, []relation.Attr{sk}, nil, mode, nil, size))
		}}
		algos["nestedloop"+suffix] = algo{2, func(t *testing.T, ch []Iterator, size int) Iterator {
			return must(NewBatchNestedLoopJoin(ch[0], ch[1], key, mode, nil, size))
		}}
	}
	cases := make(map[string]opCase, len(algos)*len(registrySizes))
	for name, a := range algos {
		for _, rs := range registrySizes {
			size := rs.size
			cases[rs.prefix+name] = opCase{a.children, size, func(t *testing.T, ch []Iterator) Iterator {
				return a.build(t, ch, size)
			}}
		}
	}
	return cases
}

// buildChildren vends fault-wrapped scans at the case's batch size:
// position at gets the fault, the others are clean wrappers (so their
// lifecycle is audited too).
func buildChildren(rt, st *storage.Table, oc opCase, at int, f Fault) ([]Iterator, []*FaultIterator) {
	tables := []*storage.Table{rt, st}
	ch := make([]Iterator, oc.children)
	fis := make([]*FaultIterator, oc.children)
	for i := range ch {
		cfg := Fault{}
		if i == at {
			cfg = f
		}
		fi := faultScan(tables[i], cfg, oc.size)
		ch[i], fis[i] = fi, fi
	}
	return ch, fis
}
