// Package pool recycles slices across the lifetimes of the objects that
// hold them — operator build state, batch slabs, spill blocks and served
// results — so that a query's buffers come from the previous query's.
// It is a leaf: internal/exec and internal/exec/spill both import it.
package pool

import "sync"

// Pool recycles slices of T process-wide, keyed by exact capacity: a
// slice comes back with the capacity it was asked for, so a governor
// charge for n slots covers exactly the n slots held. Without recycling,
// each query churns megabytes of buffers and forces a collector cycle —
// which rescans every resident relation — every few queries. Each
// capacity's slices sit in a sync.Pool, which the collector empties, and
// the *[]T boxes that hold them are recycled too, so neither Get nor Put
// allocates once warm. A pool keeps at most MaxClasses capacities; a
// slice of any other capacity is allocated on Get and dropped on Put,
// as without a pool. The zero Pool is ready to use.
type Pool[T any] struct {
	mu    sync.Mutex
	byCap map[int]*sync.Pool
	boxes sync.Pool // empty *[]T
}

// MaxClasses bounds the capacities one Pool keeps.
const MaxClasses = 1024

// class returns the sync.Pool of capacity c, or nil past MaxClasses.
func (p *Pool[T]) class(c int) *sync.Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp := p.byCap[c]
	if sp == nil && len(p.byCap) < MaxClasses {
		if p.byCap == nil {
			p.byCap = make(map[int]*sync.Pool)
		}
		sp = new(sync.Pool)
		p.byCap[c] = sp
	}
	return sp
}

// Get returns a slice of length and capacity n. Contents are
// unspecified; callers must overwrite before reading.
func (p *Pool[T]) Get(n int) []T {
	if sp := p.class(n); sp != nil {
		if box, ok := sp.Get().(*[]T); ok {
			s := *box
			*box = nil
			p.boxes.Put(box)
			return s[:n]
		}
	}
	return make([]T, n)
}

// Put recycles s under its capacity. The caller yields ownership: the
// slice must not be read or written afterwards.
func (p *Pool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	sp := p.class(cap(s))
	if sp == nil {
		return
	}
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s[:0]
	sp.Put(box)
}

// Grow returns s with room for n more elements, moved to a pooled slice
// of at least twice the capacity (16 at least) when it is full; the old
// slice goes back to the pool.
func (p *Pool[T]) Grow(s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	c := max(16, 2*cap(s))
	for c < len(s)+n {
		c *= 2
	}
	t := p.Get(c)[:len(s)]
	copy(t, s)
	p.Put(s)
	return t
}
