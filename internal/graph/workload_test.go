package graph_test

import (
	"math/rand"
	"testing"

	"freejoin/internal/workload"
)

// TestLemma1EquivalenceWorkloadGraphs (E9): the definitional and the
// forbidden-pattern niceness checks agree on 3 000 random connected
// graphs of 2–7 nodes drawn by the workload generator, which covers
// both outcomes.
func TestLemma1EquivalenceWorkloadGraphs(t *testing.T) {
	rnd := rand.New(rand.NewSource(1993))
	nice, trials := 0, 3000
	for trial := 0; trial < trials; trial++ {
		g := workload.RandomConnectedGraph(rnd, 2+rnd.Intn(6))
		lemma1, r1 := g.IsNiceLemma1()
		def, r2 := g.IsNiceDefinitional()
		if lemma1 != def {
			t.Fatalf("trial %d: lemma1=%v (%s), definitional=%v (%s) on\n%v", trial, lemma1, r1, def, r2, g)
		}
		if lemma1 {
			nice++
		}
	}
	if nice == 0 || nice == trials {
		t.Errorf("%d of %d graphs nice; the generator must cover both outcomes", nice, trials)
	}
}
