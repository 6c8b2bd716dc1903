package core_test

import (
	"fmt"

	"freejoin/internal/core"
	"freejoin/internal/expr"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// The paper's Theorem 1 as a decision procedure: a join feeding an
// outerjoin (nice graph, strong key predicate) is freely reorderable;
// Example 2's shape is not.
func ExampleFreelyReorderable() {
	eq := func(u, v string) predicate.Predicate {
		return predicate.Eq(relation.A(u, "a"), relation.A(v, "a"))
	}
	good := expr.NewOuter(
		expr.NewJoin(expr.NewLeaf("R"), expr.NewLeaf("S"), eq("R", "S")),
		expr.NewLeaf("T"), eq("S", "T"))
	ok, _ := core.FreelyReorderable(good)
	fmt.Println("(R - S) -> T:", ok)

	bad := expr.NewOuter(expr.NewLeaf("R"),
		expr.NewJoin(expr.NewLeaf("S"), expr.NewLeaf("T"), eq("S", "T")),
		eq("R", "S"))
	ok, reason := core.FreelyReorderable(bad)
	fmt.Println("R -> (S - T):", ok)
	fmt.Println(reason)
	// Output:
	// (R - S) -> T: true
	// R -> (S - T): false
	// NOT provably freely reorderable: graph is not nice (null-supplied node S is incident to a join edge (X -> Y - Z));
}

// Verify evaluates every implementing tree of a query's graph on one
// database — the brute-force oracle behind the theorem tests.
func ExampleVerify() {
	eq := predicate.Eq(relation.A("Dept", "dno"), relation.A("Emp", "dno"))
	q := expr.NewOuter(expr.NewLeaf("Dept"), expr.NewLeaf("Emp"), eq)
	db := expr.DB{
		"Dept": relation.FromRows("Dept", []string{"dno"}, []any{1}, []any{2}),
		"Emp":  relation.FromRows("Emp", []string{"dno"}, []any{1}),
	}
	res, err := core.VerifyQuery(q, db)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("trees: %d, all equal: %v\n", res.ITCount, res.AllEqual)
	// Output:
	// trees: 2, all equal: true
}

// Simplify applies the §4 rule: a restriction that is strong on a
// null-supplied relation converts the outerjoin into a join.
func ExampleSimplify() {
	eq := predicate.Eq(relation.A("R", "a"), relation.A("S", "a"))
	q := expr.NewRestrict(
		expr.NewOuter(expr.NewLeaf("R"), expr.NewLeaf("S"), eq),
		predicate.EqConst(relation.A("S", "a"), relation.Int(1)))
	simplified, n := core.Simplify(q, core.SimplifyOptions{})
	fmt.Println("conversions:", n)
	fmt.Println(simplified)
	// Output:
	// conversions: 1
	// sigma[S.a = 1]((R - S))
}

// The tour: a three-relation join/outerjoin query meets the theorem's
// preconditions, its graph has two implementing trees modulo reversal,
// and all of them (both operand orders) evaluate to the same relation.
// Example 2's shape over the same relations is not freely reorderable.
func ExampleAnalyze() {
	db := expr.DB{
		"Cust": relation.FromRows("Cust", []string{"id", "name"},
			[]any{1, "ada"}, []any{2, "bob"}, []any{3, "eve"}),
		"Ord": relation.FromRows("Ord", []string{"cust", "oid"},
			[]any{1, 100}, []any{1, 101}, []any{2, 200}),
		"Ship": relation.FromRows("Ship", []string{"oid", "carrier"},
			[]any{100, "dhl"}),
	}
	custOrd := predicate.Eq(relation.A("Cust", "id"), relation.A("Ord", "cust"))
	ordShip := predicate.Eq(relation.A("Ord", "oid"), relation.A("Ship", "oid"))
	// (Cust - Ord) -> Ship: customers with orders, shipments optional.
	q := expr.NewOuter(
		expr.NewJoin(expr.NewLeaf("Cust"), expr.NewLeaf("Ord"), custOrd),
		expr.NewLeaf("Ship"), ordShip)
	analysis, err := core.Analyze(q)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(analysis)
	its, err := expr.EnumerateITs(analysis.Graph, true)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, it := range its {
		fmt.Println("  ", it)
	}
	res, err := core.Verify(analysis.Graph, db)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("all %d trees agree: %v\n", res.ITCount, res.AllEqual)
	out, err := q.Eval(db)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(out)

	bad := expr.NewOuter(expr.NewLeaf("Cust"),
		expr.NewJoin(expr.NewLeaf("Ord"), expr.NewLeaf("Ship"), ordShip), custOrd)
	ok, _ := core.FreelyReorderable(bad)
	fmt.Printf("%s freely reorderable: %v\n", bad, ok)
	// Output:
	// freely reorderable (nice graph, strong outerjoin predicates)
	//    ((Cust - Ord) -> Ship)
	//    (Cust - (Ord -> Ship))
	// all 8 trees agree: true
	// Cust.id  Cust.name  Ord.cust  Ord.oid  Ship.oid  Ship.carrier
	// -------  ---------  --------  -------  --------  ------------
	// 1        ada        1         100      100       dhl
	// 1        ada        1         101      -         -
	// 2        bob        2         200      -         -
	// (3 rows)
	// (Cust -> (Ord - Ship)) freely reorderable: false
}

// Flattening a hierarchy where some parents have no children ([SCHO87],
// [OZSO89]): the outerjoin chain Div -> Dept -> Team keeps a division
// without departments and a department without teams, and is freely
// reorderable, so all of its implementing trees agree.
func ExampleVerify_hierarchy() {
	db := expr.DB{
		"Div": relation.FromRows("Div", []string{"id", "name"},
			[]any{1, "Products"}, []any{2, "Research"}),
		"Dept": relation.FromRows("Dept", []string{"div", "id", "name"},
			[]any{1, 10, "Databases"}, []any{1, 11, "Compilers"}),
		"Team": relation.FromRows("Team", []string{"dept", "name"},
			[]any{10, "optimizer"}, []any{10, "storage"}),
	}
	q := expr.NewOuter(
		expr.NewOuter(expr.NewLeaf("Div"), expr.NewLeaf("Dept"),
			predicate.Eq(relation.A("Div", "id"), relation.A("Dept", "div"))),
		expr.NewLeaf("Team"),
		predicate.Eq(relation.A("Dept", "id"), relation.A("Team", "dept")))
	res, err := core.VerifyQuery(q, db)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("trees: %d, all equal: %v\n", res.ITCount, res.AllEqual)
	out, err := q.Eval(db)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(out)
	// Output:
	// trees: 8, all equal: true
	// Div.id  Div.name  Dept.div  Dept.id  Dept.name  Team.dept  Team.name
	// ------  --------  --------  -------  ---------  ---------  ---------
	// 1       Products  1         10       Databases  10         optimizer
	// 1       Products  1         10       Databases  10         storage
	// 1       Products  1         11       Compilers  -          -
	// 2       Research  -         -        -          -          -
	// (4 rows)
}
