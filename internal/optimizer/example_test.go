package optimizer_test

import (
	"fmt"
	"log"

	"freejoin/internal/exec"
	"freejoin/internal/expr"
	"freejoin/internal/optimizer"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// run executes a plan and reports its result and the base tuples it
// retrieved.
func run(o *optimizer.Optimizer, p *optimizer.Plan) (*relation.Relation, int64) {
	var c exec.Counters
	out, err := o.ExecuteCtxCounted(nil, p, &c)
	if err != nil {
		log.Fatal(err)
	}
	return out, c.TuplesRetrieved()
}

// The §6.1 recipe on the paper's Example 1: a freely-reorderable query
// gets the full DP treatment — the optimizer picks the cheap association
// regardless of how the user wrote the query. With one row in R1, N rows
// in R2 and R3, and key indexes, the written order touches 2N+1 tuples
// and the reordered one 3.
func ExampleOptimizer_PlanQueryTrace() {
	const n = 1000
	cat := storage.NewCatalog()
	one := relation.New(relation.SchemeOf("R1", "a"))
	one.MustAppend(relation.Int(n / 2))
	cat.AddRelation("R1", one)
	big := func(name string) {
		r := relation.New(relation.SchemeOf(name, "a"))
		for i := 0; i < n; i++ {
			r.MustAppend(relation.Int(int64(i)))
		}
		cat.AddRelation(name, r)
		t, _ := cat.Table(name)
		if _, err := t.BuildHashIndex("a"); err != nil {
			log.Fatal(err)
		}
	}
	big("R2")
	big("R3")

	key := func(u, v string) predicate.Predicate {
		return predicate.Eq(relation.A(u, "a"), relation.A(v, "a"))
	}
	// The user writes the expensive association of Example 1.
	q := expr.NewJoin(expr.NewLeaf("R1"),
		expr.NewOuter(expr.NewLeaf("R2"), expr.NewLeaf("R3"), key("R2", "R3")),
		key("R1", "R2"))

	o := optimizer.New(cat)
	fixed, err := o.PlanFixed(q)
	if err != nil {
		log.Fatal(err)
	}
	out, tuples := run(o, fixed)
	fmt.Println("as written:", fixed.Tree(), "rows:", out.Len(), "tuples retrieved:", tuples)

	plan, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		log.Fatal(err)
	}
	out, tuples = run(o, plan)
	fmt.Println("strategy:", tr.Strategy)
	fmt.Println("plan:", plan.Tree(), "rows:", out.Len(), "tuples retrieved:", tuples)
	// Output:
	// as written: (R1 - (R2 -> R3)) rows: 1 tuples retrieved: 2001
	// strategy: reordered
	// plan: ((R1 - R2) -> R3) rows: 1 tuples retrieved: 3
}

// The paper's motivating workload: "when we want a listing of
// departments and their employees, we often want to see all
// departments, even those without employees". The outerjoin chain
// Dept -> Emp -> Badge expresses it directly; it is freely reorderable,
// so the optimizer may pick any order, and the rows a plain join would
// drop (Archives without employees, bob without a badge record) survive.
func ExampleOptimizer_PlanQueryTrace_departments() {
	cat := storage.NewCatalog()
	cat.AddRelation("Dept", relation.FromRows("Dept", []string{"dno", "name"},
		[]any{1, "Engineering"},
		[]any{2, "Sales"},
		[]any{3, "Archives"},
	))
	cat.AddRelation("Emp", relation.FromRows("Emp", []string{"dno", "name", "badge"},
		[]any{1, "ada", 7001},
		[]any{1, "bob", 7002},
		[]any{2, "eve", 7003},
	))
	cat.AddRelation("Badge", relation.FromRows("Badge", []string{"badge", "issued"},
		[]any{7001, "2019"},
		[]any{7003, "2022"},
	))
	for _, t := range []string{"Emp", "Badge"} {
		tb, err := cat.Table(t)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := tb.BuildHashIndex("badge"); err != nil {
			log.Fatal(err)
		}
	}
	q := expr.NewOuter(
		expr.NewOuter(expr.NewLeaf("Dept"), expr.NewLeaf("Emp"),
			predicate.Eq(relation.A("Dept", "dno"), relation.A("Emp", "dno"))),
		expr.NewLeaf("Badge"),
		predicate.Eq(relation.A("Emp", "badge"), relation.A("Badge", "badge")))

	o := optimizer.New(cat)
	plan, tr, err := o.PlanQueryTrace(q)
	if err != nil {
		log.Fatal(err)
	}
	out, _ := run(o, plan)
	fmt.Println("strategy:", tr.Strategy)
	fmt.Print(out)
	// Output:
	// strategy: reordered
	// Dept.dno  Dept.name    Emp.dno  Emp.name  Emp.badge  Badge.badge  Badge.issued
	// --------  -----------  -------  --------  ---------  -----------  ------------
	// 1         Engineering  1        ada       7001       7001         2019
	// 1         Engineering  1        bob       7002       -            -
	// 2         Sales        2        eve       7003       7003         2022
	// 3         Archives     -        -         -          -            -
	// (4 rows)
}
