package algebra_test

import (
	"fmt"
	"log"

	"freejoin/internal/algebra"
	"freejoin/internal/core"
	"freejoin/internal/expr"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// Count queries need outerjoins ([MURA89]): counting employees per
// department over a plain join silently drops the empty department;
// COUNT over a non-null employee column of the outerjoin counts it as 0.
// The outerjoin block under the aggregate stays freely reorderable.
func ExampleGroupBy() {
	db := expr.DB{
		"Dept": relation.FromRows("Dept", []string{"dno", "name"},
			[]any{1, "Engineering"}, []any{2, "Sales"}, []any{3, "Archives"}),
		"Emp": relation.FromRows("Emp", []string{"dno", "id"},
			[]any{1, 100}, []any{1, 101}, []any{2, 200}),
	}
	p := predicate.Eq(relation.A("Dept", "dno"), relation.A("Emp", "dno"))
	groupCols := []relation.Attr{relation.A("Dept", "dno"), relation.A("Dept", "name")}
	aggs := []algebra.Agg{{
		Kind: algebra.CountCol, Col: relation.A("Emp", "id"), As: relation.A("agg", "employees"),
	}}
	countOver := func(q *expr.Node) *relation.Relation {
		joined, err := q.Eval(db)
		if err != nil {
			log.Fatal(err)
		}
		out, err := algebra.GroupBy(joined, groupCols, aggs)
		if err != nil {
			log.Fatal(err)
		}
		return out
	}
	fmt.Print(countOver(expr.NewJoin(expr.NewLeaf("Dept"), expr.NewLeaf("Emp"), p)))
	outer := expr.NewOuter(expr.NewLeaf("Dept"), expr.NewLeaf("Emp"), p)
	fmt.Print(countOver(outer))
	ok, _ := core.FreelyReorderable(outer)
	fmt.Println("outerjoin block freely reorderable:", ok)
	// Output:
	// Dept.dno  Dept.name    agg.employees
	// --------  -----------  -------------
	// 1         Engineering  2
	// 2         Sales        1
	// (2 rows)
	// Dept.dno  Dept.name    agg.employees
	// --------  -----------  -------------
	// 1         Engineering  2
	// 2         Sales        1
	// 3         Archives     0
	// (3 rows)
	// outerjoin block freely reorderable: true
}
