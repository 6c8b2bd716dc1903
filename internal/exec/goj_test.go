package exec

import (
	"math/rand"
	"testing"

	"freejoin/internal/algebra"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
)

// TestHashGOJMatchesAlgebra: the streaming operator agrees with the eqn
// (14) reference implementation on random inputs and random S choices.
func TestHashGOJMatchesAlgebra(t *testing.T) {
	rnd := rand.New(rand.NewSource(33))
	key := predicate.Eq(relation.A("R", "k"), relation.A("S", "k"))
	for trial := 0; trial < 60; trial++ {
		lrel := randRel(rnd, "R", rnd.Intn(12))
		rrel := randRel(rnd, "S", rnd.Intn(12))
		var s []relation.Attr
		switch rnd.Intn(3) {
		case 0:
			s = []relation.Attr{relation.A("R", "k")}
		case 1:
			s = []relation.Attr{relation.A("R", "v")}
		default:
			s = lrel.Scheme().Attrs()
		}
		want, err := algebra.GeneralizedOuterJoin(lrel, rrel, key, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range hashJoinSizes {
			ls, _ := scanOf(t, "R", lrel, nil)
			rs, _ := scanOf(t, "S", rrel, nil)
			goj, err := NewHashGOJ(ls, rs,
				[]relation.Attr{relation.A("R", "k")}, []relation.Attr{relation.A("S", "k")}, s, size)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(goj, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualBag(want) {
				t.Fatalf("trial %d (S=%v) size %d: hash GOJ mismatch\ngot:\n%v\nwant:\n%v", trial, s, size, got, want)
			}
		}
	}
}

func TestHashGOJAsOuterjoin(t *testing.T) {
	// GOJ[sch(X)] on duplicate-free X behaves as the left outerjoin.
	lrel := relation.FromRows("R", []string{"k", "v"},
		[]any{1, 10}, []any{2, 20}, []any{nil, 30})
	rrel := relation.FromRows("S", []string{"k", "w"},
		[]any{1, 100}, []any{1, 101})
	key := predicate.Eq(relation.A("R", "k"), relation.A("S", "k"))
	want, err := algebra.LeftOuterJoin(lrel, rrel, key)
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := scanOf(t, "R", lrel, nil)
	rs, _ := scanOf(t, "S", rrel, nil)
	goj, err := NewHashGOJ(ls, rs,
		[]relation.Attr{relation.A("R", "k")}, []relation.Attr{relation.A("S", "k")},
		lrel.Scheme().Attrs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(goj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualBag(want) {
		t.Fatalf("GOJ[sch(X)] != outerjoin:\n%v\nvs\n%v", got, want)
	}
}

func TestHashGOJErrors(t *testing.T) {
	lrel := randRel(rand.New(rand.NewSource(1)), "R", 3)
	rrel := randRel(rand.New(rand.NewSource(2)), "S", 3)
	ls, _ := scanOf(t, "R", lrel, nil)
	rs, _ := scanOf(t, "S", rrel, nil)
	rk := []relation.Attr{relation.A("S", "k")}
	lk := []relation.Attr{relation.A("R", "k")}
	if _, err := NewHashGOJ(ls, rs, nil, nil, nil, 0); err == nil {
		t.Error("empty keys must fail")
	}
	if _, err := NewHashGOJ(ls, rs, []relation.Attr{relation.A("Z", "z")}, rk, nil, 0); err == nil {
		t.Error("bad left key must fail")
	}
	if _, err := NewHashGOJ(ls, rs, lk, []relation.Attr{relation.A("Z", "z")}, nil, 0); err == nil {
		t.Error("bad right key must fail")
	}
	if _, err := NewHashGOJ(ls, rs, lk, rk, []relation.Attr{relation.A("Z", "z")}, 0); err == nil {
		t.Error("S outside the left scheme must fail")
	}
}
