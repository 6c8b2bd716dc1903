package lang

import (
	"strings"
	"testing"

	"freejoin/internal/core"
	"freejoin/internal/entity"
	"freejoin/internal/relation"
)

// paperStore builds the §5 schema and a small instance:
//
//	EMPLOYEE(Name, D#, Rank; ChildName set)
//	REPORT(Title)
//	DEPARTMENT(D#, Location; Manager -> EMPLOYEE, Audit -> REPORT)
func paperStore(t *testing.T) *entity.Store {
	t.Helper()
	s := entity.NewStore()
	for _, def := range []entity.TypeDef{
		{Name: "EMPLOYEE", Scalars: []string{"Name", "D#", "Rank"}, Sets: []string{"ChildName"}},
		{Name: "REPORT", Scalars: []string{"Title"}},
		{Name: "DEPARTMENT", Scalars: []string{"D#", "Location"},
			Refs: map[string]string{"Manager": "EMPLOYEE", "Audit": "REPORT"}},
	} {
		if err := s.Define(def); err != nil {
			t.Fatal(err)
		}
	}
	mkEmp := func(name string, dept, rank int64, children ...string) entity.OID {
		oid, err := s.New("EMPLOYEE", map[string]relation.Value{
			"Name": relation.Str(name), "D#": relation.Int(dept), "Rank": relation.Int(rank)})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range children {
			if err := s.AddToSet(oid, "ChildName", relation.Str(c)); err != nil {
				t.Fatal(err)
			}
		}
		return oid
	}
	ana := mkEmp("ana", 1, 12, "kim", "lee")
	mkEmp("bo", 1, 4) // no children
	cruz := mkEmp("cruz", 2, 11, "max")

	rep, err := s.New("REPORT", map[string]relation.Value{"Title": relation.Str("audit-zurich")})
	if err != nil {
		t.Fatal(err)
	}
	mkDept := func(d int64, loc string, mgr, audit entity.OID) entity.OID {
		oid, err := s.New("DEPARTMENT", map[string]relation.Value{
			"D#": relation.Int(d), "Location": relation.Str(loc)})
		if err != nil {
			t.Fatal(err)
		}
		if mgr != 0 {
			if err := s.SetRef(oid, "Manager", mgr); err != nil {
				t.Fatal(err)
			}
		}
		if audit != 0 {
			if err := s.SetRef(oid, "Audit", audit); err != nil {
				t.Fatal(err)
			}
		}
		return oid
	}
	mkDept(1, "Zurich", ana, rep)
	mkDept(2, "Queretaro", cruz, 0)
	mkDept(3, "Boston", 0, 0) // no manager, no audit
	return s
}

func TestLexerErrors(t *testing.T) {
	for _, bad := range []string{"a - b", "'unterminated", "select ? from x"} {
		if _, err := lex(bad); err == nil {
			t.Errorf("lex(%q) should fail", bad)
		}
	}
}

func TestLexerTokens(t *testing.T) {
	toks, err := lex("SELECT All FROM E*Child, D-->Mgr WHERE E.D# = 3 AND D.x <> 'a' AND a.b <= -2.5")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	// Spot checks.
	if toks[4].kind != tokStar || toks[5].text != "Child" {
		t.Errorf("star parse: %v", toks[:7])
	}
	if toks[8].kind != tokArrow {
		t.Errorf("arrow parse: %v", toks[6:10])
	}
	found := false
	for _, tk := range toks {
		if tk.kind == tokNumber && tk.text == "-2.5" {
			found = true
		}
	}
	if !found {
		t.Error("negative number not lexed")
	}
	_ = kinds
}

func TestParseQueries(t *testing.T) {
	q, err := Parse(`Select All
		From EMPLOYEE*ChildName, DEPARTMENT
		Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.From) != 2 || len(q.Where) != 2 {
		t.Fatalf("shape: %+v", q)
	}
	if q.From[0].String() != "EMPLOYEE*ChildName" {
		t.Errorf("item = %s", q.From[0])
	}
	q2, err := Parse("select all from DEPARTMENT-->Manager-->Audit where DEPARTMENT.Location = 'Zurich'")
	if err != nil {
		t.Fatal(err)
	}
	if len(q2.From[0].Steps) != 2 || q2.From[0].Steps[1].Kind != Link {
		t.Fatalf("steps: %+v", q2.From[0])
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"select",
		"select all",
		"select all from",
		"select all from E where",
		"select all from E where E.x",
		"select all from E where E.x =",
		"select all from E where E = 1",       // missing .field
		"select all from E*",                  // missing field
		"select all from E-->",                // missing field
		"select all from E extra",             // trailing
		"select all from E where E.x = 1 and", // dangling and
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// TestUnnestQuery is the paper's first §5 example: all employees of
// Queretaro departments, one row per child, employees without children
// preserved with a null ChildName.
func TestUnnestQuery(t *testing.T) {
	s := paperStore(t)
	tr, out, err := Run(s, `Select All
		From EMPLOYEE*ChildName, DEPARTMENT
		Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'`)
	if err != nil {
		t.Fatal(err)
	}
	// Queretaro = dept 2 = cruz with one child: one row, child max.
	if out.Len() != 1 {
		t.Fatalf("rows:\n%v", out)
	}
	if v, _ := out.Row(0).Get(relation.A("EMPLOYEE_ChildName", "ChildName")); v != relation.Str("max") {
		t.Errorf("child = %v", v)
	}
	// The block is freely reorderable (§5.3).
	if !tr.Analysis.Free {
		t.Fatalf("block not free: %s", tr.Analysis)
	}
}

func TestUnnestPreservesChildless(t *testing.T) {
	s := paperStore(t)
	_, out, err := Run(s, `Select All From EMPLOYEE*ChildName, DEPARTMENT
		Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Zurich'`)
	if err != nil {
		t.Fatal(err)
	}
	// Zurich = dept 1: ana (2 children) + bo (childless, null child row).
	if out.Len() != 3 {
		t.Fatalf("rows = %d:\n%v", out.Len(), out)
	}
	nulls := 0
	for i := 0; i < out.Len(); i++ {
		if v, _ := out.Row(i).Get(relation.A("EMPLOYEE_ChildName", "ChildName")); v.IsNull() {
			nulls++
		}
	}
	if nulls != 1 {
		t.Errorf("childless rows = %d, want 1", nulls)
	}
}

// TestLinkQuery is the paper's second §5 example: Zurich departments with
// manager attributes and audit report, departments without either still
// returned.
func TestLinkQuery(t *testing.T) {
	s := paperStore(t)
	tr, out, err := Run(s, `Select All From DEPARTMENT-->Manager-->Audit
		Where DEPARTMENT.Location = 'Zurich'`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("rows:\n%v", out)
	}
	row := out.Row(0)
	if v, _ := row.Get(relation.A("DEPARTMENT_Manager", "Name")); v != relation.Str("ana") {
		t.Errorf("manager = %v", v)
	}
	if v, _ := row.Get(relation.A("DEPARTMENT_Audit", "Title")); v != relation.Str("audit-zurich") {
		t.Errorf("audit = %v", v)
	}
	if !tr.Analysis.Free {
		t.Fatalf("block not free: %s", tr.Analysis)
	}
	// Audit resolved on DEPARTMENT, not on the EMPLOYEE manager.
	if !strings.Contains(tr.Block.String(), "DEPARTMENT_Audit") {
		t.Errorf("tree = %s", tr.Block)
	}
}

func TestLinkPreservesMissingRefs(t *testing.T) {
	s := paperStore(t)
	_, out, err := Run(s, "Select All From DEPARTMENT-->Manager-->Audit")
	if err != nil {
		t.Fatal(err)
	}
	// All three departments appear; Boston has nulls for both.
	if out.Len() != 3 {
		t.Fatalf("rows = %d:\n%v", out.Len(), out)
	}
}

// TestProsecutorQuery is the paper's combined example: employees (with
// children unnested) of Zurich departments with manager and audit, rank
// above 10.
func TestProsecutorQuery(t *testing.T) {
	s := paperStore(t)
	tr, out, err := Run(s, `Select All
		From EMPLOYEE*ChildName, DEPARTMENT-->Manager-->Audit
		Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Zurich' and EMPLOYEE.Rank > 10`)
	if err != nil {
		t.Fatal(err)
	}
	// Zurich, rank>10: ana only, with 2 children.
	if out.Len() != 2 {
		t.Fatalf("rows = %d:\n%v", out.Len(), out)
	}
	if !tr.Analysis.Free {
		t.Fatalf("block not free: %s", tr.Analysis)
	}
	// Graph shape: 5 nodes (EMPLOYEE, its child values, DEPARTMENT,
	// manager, audit), 1 join edge, 3 outer edges.
	if tr.Graph.NumNodes() != 5 || len(tr.Graph.Edges()) != 4 {
		t.Fatalf("graph:\n%v", tr.Graph)
	}
}

// TestSection5QueriesReorderable (E13): the §5.2 query shapes compile
// to freely reorderable outerjoin blocks — the paper's three queries
// with 8, 8 and 288 implementing trees — every one of which evaluates
// to the block's answer.
func TestSection5QueriesReorderable(t *testing.T) {
	s := paperStore(t)
	queries := []struct {
		src   string
		trees int
	}{
		{"Select All From EMPLOYEE*ChildName, DEPARTMENT Where EMPLOYEE.D# = DEPARTMENT.D#", 8},
		{"Select All From DEPARTMENT-->Manager-->Audit", 8},
		{"Select All From EMPLOYEE*ChildName, DEPARTMENT-->Manager-->Audit Where EMPLOYEE.D# = DEPARTMENT.D#", 288},
		{"Select All From EMPLOYEE*ChildName", 2},
		{"Select All From DEPARTMENT-->Manager, EMPLOYEE Where EMPLOYEE.D# = DEPARTMENT.D#", 8},
	}
	for _, tc := range queries {
		src := tc.src
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		tr, err := Translate(s, q)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !tr.Analysis.Free {
			t.Fatalf("%s: block not freely reorderable: %s", src, tr.Analysis)
		}
		res, err := core.Verify(tr.Graph, tr.DB)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !res.AllEqual {
			t.Fatalf("%s: implementing trees disagree:\n%v\nvs\n%v", src, res.ResultA, res.ResultB)
		}
		if res.ITCount != tc.trees {
			t.Errorf("%s: %d implementing trees, want %d", src, res.ITCount, tc.trees)
		}
	}
}

func TestTranslateErrors(t *testing.T) {
	s := paperStore(t)
	cases := []string{
		// Unknown base type.
		"select all from NOPE",
		// Unknown field.
		"select all from EMPLOYEE*Nope",
		"select all from DEPARTMENT-->Nope",
		// Unnesting a scalar.
		"select all from EMPLOYEE*Name",
		// Variable used twice.
		"select all from EMPLOYEE, EMPLOYEE",
		// Cartesian product.
		"select all from EMPLOYEE, DEPARTMENT",
		// Derived attribute in Where (§5.1 restriction).
		"select all from EMPLOYEE*ChildName, DEPARTMENT where EMPLOYEE.D# = DEPARTMENT.D# and EMPLOYEE_ChildName.ChildName = 'kim'",
		// Unknown variable in Where.
		"select all from EMPLOYEE where NOPE.x = 1",
		// Unknown scalar in Where.
		"select all from EMPLOYEE where EMPLOYEE.Nope = 1",
	}
	for _, src := range cases {
		q, err := Parse(src)
		if err != nil {
			continue // parse-level failure also acceptable for some
		}
		if _, err := Translate(s, q); err == nil {
			t.Errorf("Translate(%q) should fail", src)
		}
	}
}

func TestWhereOperatorsAndLiterals(t *testing.T) {
	s := paperStore(t)
	for _, src := range []string{
		"select all from EMPLOYEE where EMPLOYEE.Rank >= 4",
		"select all from EMPLOYEE where EMPLOYEE.Rank < 100",
		"select all from EMPLOYEE where EMPLOYEE.Rank <= 12",
		"select all from EMPLOYEE where EMPLOYEE.Rank <> 4",
		"select all from EMPLOYEE where EMPLOYEE.Name = 'ana'",
		"select all from EMPLOYEE where EMPLOYEE.Rank > 2.5",
	} {
		_, out, err := Run(s, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s: no rows", src)
		}
	}
	// OID column usable in Where.
	if _, out, err := Run(s, "select all from EMPLOYEE where EMPLOYEE.@oid >= 1"); err != nil || out.Len() != 3 {
		t.Errorf("@oid where: %v", err)
	}
}

// TestSection5RestrictedQueries (E13): the §5 queries with their
// restrictions — Queretaro's employees with children, Zurich's manager
// and audit, and the prosecutor query — are freely reorderable, every
// implementing tree of each block agrees, and they return 1, 1 and 2
// rows.
func TestSection5RestrictedQueries(t *testing.T) {
	s := paperStore(t)
	for _, tc := range []struct {
		src  string
		rows int
	}{
		{"Select All From EMPLOYEE*ChildName, DEPARTMENT Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'", 1},
		{"Select All From DEPARTMENT-->Manager-->Audit Where DEPARTMENT.Location = 'Zurich'", 1},
		{"Select All From EMPLOYEE*ChildName, DEPARTMENT-->Manager-->Audit Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Zurich' and EMPLOYEE.Rank > 10", 2},
	} {
		tr, out, err := Run(s, tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if !tr.Analysis.Free {
			t.Errorf("%s: block not freely reorderable: %s", tc.src, tr.Analysis)
		}
		res, err := core.Verify(tr.Graph, tr.DB)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if !res.AllEqual || out.Len() != tc.rows {
			t.Errorf("%s: trees agree = %v, %d rows; want agreement and %d rows:\n%v", tc.src, res.AllEqual, out.Len(), tc.rows, out)
		}
	}
}
