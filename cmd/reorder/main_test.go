package main

import (
	"strings"
	"testing"
)

func TestRunAnalysis(t *testing.T) {
	var out strings.Builder
	err := run(&out, "(R -[R.a = S.a] S) ->[S.a = T.a] T", true, true, true, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"freely reorderable",
		"implementing trees: 2 (modulo reversal)",
		"((R - S) -> T)",
		"(R - (S -> T))",
		"digraph query",
		"*   1:",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunFullEnumeration(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "R -[R.a = S.a] S", true, false, false, 1000); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "implementing trees: 2\n") {
		t.Errorf("full enumeration output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "R -[", false, false, true, 1000); err == nil {
		t.Error("parse error must surface")
	}
	if err := run(&out, "R -[R.a = 1] S", false, false, true, 1000); err == nil {
		t.Error("undefined graph must surface")
	}
	// Limit enforcement.
	big := "A"
	for i := 1; i < 10; i++ {
		u := string(rune('A' + i - 1))
		v := string(rune('A' + i))
		big = "(" + big + " -[" + u + ".a = " + v + ".a] " + v + ")"
	}
	if err := run(&out, big, true, false, true, 10); err == nil {
		t.Error("limit must be enforced")
	}
}

func TestRunNonNice(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "R ->[R.a = S.a] (S -[S.a = T.a] T)", false, false, true, 1000); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "NOT provably freely reorderable") {
		t.Errorf("non-nice analysis missing:\n%s", out.String())
	}
}
