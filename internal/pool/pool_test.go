package pool

import "testing"

// TestPoolExactCapacity: a pooled slice has exactly the capacity asked
// for (the governor charged for that many slots), Grow doubles through
// the pool, and a pool stops adding capacities at MaxClasses.
func TestPoolExactCapacity(t *testing.T) {
	var p Pool[int32]
	for _, n := range []int{1, 7, 2048, 1760, 7} {
		s := p.Get(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("Get(%d): len %d cap %d", n, len(s), cap(s))
		}
		p.Put(s)
	}
	s := p.Grow(nil, 3)
	if len(s) != 0 || cap(s) != 16 {
		t.Fatalf("Grow(nil, 3): len %d cap %d, want 0 and 16", len(s), cap(s))
	}
	s = p.Grow(append(s, make([]int32, 16)...), 1)
	if len(s) != 16 || cap(s) != 32 {
		t.Fatalf("Grow of a full 16: len %d cap %d, want 16 and 32", len(s), cap(s))
	}
	for n := 1; n <= 2*MaxClasses; n++ {
		p.Put(p.Get(n))
	}
	if len(p.byCap) != MaxClasses {
		t.Fatalf("pool keeps %d capacities, want %d", len(p.byCap), MaxClasses)
	}
	if s := p.Get(3 * MaxClasses); cap(s) != 3*MaxClasses {
		t.Fatalf("Get past MaxClasses: cap %d", cap(s))
	}
}
