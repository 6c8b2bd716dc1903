package lang_test

import (
	"fmt"
	"log"

	"freejoin/internal/core"
	"freejoin/internal/entity"
	"freejoin/internal/lang"
	"freejoin/internal/relation"
)

// The §5 language end to end: UnNest compiles to an outerjoin over the
// ValueOfField view, and the block is freely reorderable.
func Example() {
	store := entity.NewStore()
	if err := store.Define(entity.TypeDef{
		Name:    "EMPLOYEE",
		Scalars: []string{"Name", "D#"},
		Sets:    []string{"ChildName"},
	}); err != nil {
		log.Fatal(err)
	}
	ana, _ := store.New("EMPLOYEE", map[string]relation.Value{
		"Name": relation.Str("ana"), "D#": relation.Int(1)})
	_ = store.AddToSet(ana, "ChildName", relation.Str("kim"))
	if _, err := store.New("EMPLOYEE", map[string]relation.Value{
		"Name": relation.Str("bo"), "D#": relation.Int(1)}); err != nil {
		log.Fatal(err)
	}

	tr, out, err := lang.Run(store, "Select All From EMPLOYEE*ChildName")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("block:", tr.Block)
	fmt.Println("freely reorderable:", tr.Analysis.Free)
	fmt.Println("rows:", out.Len()) // ana+kim, bo+null
	// Output:
	// block: (EMPLOYEE -> EMPLOYEE_ChildName)
	// freely reorderable: true
	// rows: 2
}

// The paper's prosecutor query (§5.2): UnNest (*) and Link (-->)
// compile to outerjoins with strong OID predicates, so the block is
// freely reorderable, and every one of its implementing trees gives the
// same answer.
func ExampleTranslate() {
	s := entity.NewStore()
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(s.Define(entity.TypeDef{Name: "EMPLOYEE",
		Scalars: []string{"Name", "D#", "Rank"}, Sets: []string{"ChildName"}}))
	must(s.Define(entity.TypeDef{Name: "REPORT", Scalars: []string{"Title"}}))
	must(s.Define(entity.TypeDef{Name: "DEPARTMENT",
		Scalars: []string{"D#", "Location"},
		Refs:    map[string]string{"Manager": "EMPLOYEE", "Audit": "REPORT"}}))
	emp := func(name string, d, rank int64, kids ...string) entity.OID {
		oid, err := s.New("EMPLOYEE", map[string]relation.Value{
			"Name": relation.Str(name), "D#": relation.Int(d), "Rank": relation.Int(rank)})
		must(err)
		for _, k := range kids {
			must(s.AddToSet(oid, "ChildName", relation.Str(k)))
		}
		return oid
	}
	ana := emp("ana", 1, 12, "kim", "lee")
	emp("bo", 1, 4)
	emp("cruz", 2, 11, "max")
	rep, err := s.New("REPORT", map[string]relation.Value{"Title": relation.Str("audit-zurich")})
	must(err)
	zurich, err := s.New("DEPARTMENT", map[string]relation.Value{
		"D#": relation.Int(1), "Location": relation.Str("Zurich")})
	must(err)
	must(s.SetRef(zurich, "Manager", ana))
	must(s.SetRef(zurich, "Audit", rep))

	q, err := lang.Parse(`Select All
	From EMPLOYEE*ChildName, DEPARTMENT-->Manager-->Audit
	Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Zurich' and EMPLOYEE.Rank > 10`)
	must(err)
	tr, err := lang.Translate(s, q)
	must(err)
	fmt.Println("block:", tr.Block)
	fmt.Println("freely reorderable:", tr.Analysis.Free)
	res, err := core.Verify(tr.Graph, tr.DB)
	must(err)
	fmt.Printf("implementing trees: %d, all equal: %v\n", res.ITCount, res.AllEqual)
	out, err := tr.Eval()
	must(err)
	fmt.Println("rows:", out.Len()) // ana with each of her two children
	// Output:
	// block: ((((EMPLOYEE - DEPARTMENT) -> EMPLOYEE_ChildName) -> DEPARTMENT_Manager) -> DEPARTMENT_Audit)
	// freely reorderable: true
	// implementing trees: 288, all equal: true
	// rows: 2
}
