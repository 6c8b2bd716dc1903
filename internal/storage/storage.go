// Package storage provides the in-memory storage substrate the physical
// executor and optimizer run on: tables with hash indexes, a
// catalog with per-column statistics, and the index-lookup access path
// that Example 1's cost argument relies on ("assume that these keys have
// indexes").
package storage

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"freejoin/internal/relation"
)

// statsEpoch is the process-wide statistics-epoch source. Every catalog
// draws its epoch values from this single counter, so an epoch value is
// never reused — not within one catalog, and not across catalogs either.
// That matters wherever one plan cache serves more than one catalog: if
// each catalog counted from zero, two catalogs could share an epoch value
// and one could be served a plan optimized for the other's tables.
var statsEpoch atomic.Uint64

// Table is a named relation plus its indexes and statistics. The
// relation itself is immutable once the table is built; the mutable
// side state (index maps, the lazily memoized statistics, the catalog
// hook) is guarded by mu so a query server can plan and execute against
// a table while another session builds an index on it.
type Table struct {
	name string
	rel  *relation.Relation

	mu    sync.RWMutex
	hash  map[string]*HashIndex // by column name
	stats *TableStats

	// onChange is set when the table joins a catalog; it bumps the
	// catalog's stats epoch whenever the table's planning-relevant state
	// changes (new indexes change the available access paths).
	onChange func()
}

// NewTable wraps a relation as a table. The relation is owned by the
// table afterwards: callers must not append to it (indexes and stats are
// built once).
func NewTable(name string, rel *relation.Relation) *Table {
	return &Table{
		name: name,
		rel:  rel,
		hash: map[string]*HashIndex{},
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Relation returns the underlying relation.
func (t *Table) Relation() *relation.Relation { return t.rel }

// Scheme returns the table's scheme.
func (t *Table) Scheme() *relation.Scheme { return t.rel.Scheme() }

// changed notifies the owning catalog (if any) that planning-relevant
// table state changed.
func (t *Table) changed() {
	t.mu.RLock()
	fn := t.onChange
	t.mu.RUnlock()
	if fn != nil {
		fn()
	}
}

// setOnChange installs the catalog hook (under the table lock, so a
// concurrent index build observes either the old or the new hook, not a
// torn write).
func (t *Table) setOnChange(fn func()) {
	t.mu.Lock()
	t.onChange = fn
	t.mu.Unlock()
}

// colIndex resolves a column name (unqualified) to its position.
func (t *Table) colIndex(col string) (int, error) {
	i := t.rel.Scheme().IndexOf(relation.Attr{Rel: t.name, Name: col})
	if i < 0 {
		return 0, fmt.Errorf("storage: table %s has no column %s", t.name, col)
	}
	return i, nil
}

// BuildHashIndex builds (or rebuilds) a hash index on the column. Null
// keys are not indexed — they can never equi-match.
func (t *Table) BuildHashIndex(col string) (*HashIndex, error) {
	pos, err := t.colIndex(col)
	if err != nil {
		return nil, err
	}
	idx := &HashIndex{table: t, col: col, pos: pos, buckets: make(map[string][]int, t.rel.Len())}
	var buf []byte
	intOnly := true
	for i := 0; i < t.rel.Len(); i++ {
		v := t.rel.RawRow(i)[pos]
		if v.IsNull() {
			continue
		}
		if v.Kind() != relation.KindInt {
			intOnly = false
		}
		buf = relation.AppendJoinKey(buf[:0], v)
		idx.buckets[string(buf)] = append(idx.buckets[string(buf)], i)
	}
	if intOnly && len(idx.buckets) > 0 {
		idx.buildIntTable()
	}
	t.mu.Lock()
	t.hash[col] = idx
	t.mu.Unlock()
	t.changed()
	return idx, nil
}

// HashIndexOn returns the hash index on col, if built.
func (t *Table) HashIndexOn(col string) (*HashIndex, bool) {
	t.mu.RLock()
	idx, ok := t.hash[col]
	t.mu.RUnlock()
	return idx, ok
}

// HashIndex maps join-key encodings to row positions. When every
// indexed key is an integer, a flat open-addressed probe table serves
// lookups without encoding (or allocating) a key, and usually off a
// single cache line.
type HashIndex struct {
	table   *Table
	col     string
	pos     int
	buckets map[string][]int
	// Int probe table, built iff every indexed key is an integer:
	// islots resolves a key to an (off, n) window of ipos, the flat row
	// positions grouped per key in ascending row order.
	islots []intSlot
	ipos   []int
	ishift uint
	imask  uint64
}

// intSlot is one probe-table slot; n == 0 marks an empty slot.
type intSlot struct {
	key    int64
	off, n int32
}

// intHashMult is the fibonacci multiply-shift constant (2^64 / phi).
const intHashMult = 0x9E3779B97F4A7C15

// buildIntTable lays the int keys out open-addressed with linear
// probing: a generic map probe costs a hashed bucket walk plus pointer
// chases per lookup, while a flat slot array resolves most probes from
// the one cache line the hash lands on. Sized to stay under 50% load.
func (ix *HashIndex) buildIntTable() {
	t := ix.table
	bits := 4
	for 1<<bits < 2*len(ix.buckets) {
		bits++
	}
	ix.islots = make([]intSlot, 1<<bits)
	ix.ishift = uint(64 - bits)
	ix.imask = uint64(len(ix.islots) - 1)
	for i := 0; i < t.rel.Len(); i++ {
		v := t.rel.RawRow(i)[ix.pos]
		if v.IsNull() {
			continue
		}
		ix.claimIntSlot(v.AsInt()).n++
	}
	var off int32
	for i := range ix.islots {
		if ix.islots[i].n > 0 {
			ix.islots[i].off = off
			off += ix.islots[i].n
		}
	}
	ix.ipos = make([]int, off)
	fill := make([]int32, len(ix.islots))
	for i := 0; i < t.rel.Len(); i++ {
		v := t.rel.RawRow(i)[ix.pos]
		if v.IsNull() {
			continue
		}
		si := ix.intSlotIdx(v.AsInt())
		s := &ix.islots[si]
		ix.ipos[int(s.off)+int(fill[si])] = i
		fill[si]++
	}
}

// claimIntSlot returns the slot for k, claiming an empty one on a miss
// (build-time only; every claim is followed by an n++ so empties stay
// distinguishable).
func (ix *HashIndex) claimIntSlot(k int64) *intSlot {
	i := (uint64(k) * intHashMult) >> ix.ishift
	for {
		s := &ix.islots[i]
		if s.n == 0 {
			s.key = k
			return s
		}
		if s.key == k {
			return s
		}
		i = (i + 1) & ix.imask
	}
}

// intSlotIdx returns the slot index holding k, or -1.
func (ix *HashIndex) intSlotIdx(k int64) int {
	i := (uint64(k) * intHashMult) >> ix.ishift
	for {
		s := &ix.islots[i]
		if s.n == 0 {
			return -1
		}
		if s.key == k {
			return int(i)
		}
		i = (i + 1) & ix.imask
	}
}

// lookupInt is the probe-table lookup for an int64 join key.
func (ix *HashIndex) lookupInt(k int64) []int {
	if si := ix.intSlotIdx(k); si >= 0 {
		s := &ix.islots[si]
		e := int(s.off) + int(s.n)
		return ix.ipos[s.off:e:e]
	}
	return nil
}

// IntSpan is a resolved probe: N matching rows starting at Off in the
// index's flat positions array (N == 0 means no match).
type IntSpan struct {
	Off, N int32
}

// LookupIntSpans resolves one probe per span slot — the key of row i is
// vals[i*stride+col] — against the int probe table, or reports false if
// the index has none. Batching the probes into one tight loop matters
// more than it looks: each probe is a cache miss on a table far larger
// than L2, and a load-only loop keeps many line fills in flight where
// one probe per emitted row serializes them (the reorder window fills
// with emission work between loads). It also pays the non-inlinable
// call overhead once per batch instead of once per row.
func (ix *HashIndex) LookupIntSpans(vals []relation.Value, stride, col int, spans []IntSpan) bool {
	if ix.islots == nil {
		return false
	}
	islots, shift, mask := ix.islots, ix.ishift, ix.imask
	for i := range spans {
		v := vals[i*stride+col]
		var k int64
		if v.Kind() == relation.KindInt {
			k = v.AsInt()
		} else if kk, ok := intJoinKey(v); ok {
			k = kk
		} else {
			spans[i] = IntSpan{}
			continue
		}
		si := (uint64(k) * intHashMult) >> shift
		for {
			s := &islots[si]
			if s.n == 0 {
				spans[i] = IntSpan{}
				break
			}
			if s.key == k {
				spans[i] = IntSpan{Off: s.off, N: s.n}
				break
			}
			si = (si + 1) & mask
		}
	}
	return true
}

// SpanRows returns the row positions a span resolved to.
func (ix *HashIndex) SpanRows(sp IntSpan) []int {
	e := int(sp.Off) + int(sp.N)
	return ix.ipos[sp.Off:e:e]
}

// Col returns the indexed column name.
func (ix *HashIndex) Col() string { return ix.col }

// Lookup returns the positions of rows whose key equals v (never matches
// null). Integer keys on an all-int index probe without allocating.
func (ix *HashIndex) Lookup(v relation.Value) []int {
	if v.IsNull() {
		return nil
	}
	if ix.islots != nil {
		if k, ok := intJoinKey(v); ok {
			return ix.lookupInt(k)
		}
		return nil // an all-int index holds no non-numeric keys
	}
	return ix.buckets[string(relation.AppendJoinKey(nil, v))]
}

// intJoinKey maps v to the int64 it equi-matches under the join-key
// encoding (an integral float matches the equal int), if any.
func intJoinKey(v relation.Value) (int64, bool) {
	switch v.Kind() {
	case relation.KindInt:
		return v.AsInt(), true
	case relation.KindFloat:
		f := v.AsFloat()
		if f == math.Trunc(f) && f >= -9.2e18 && f <= 9.2e18 {
			return int64(f), true
		}
	}
	return 0, false
}

// Buckets returns the number of distinct keys.
func (ix *HashIndex) Buckets() int { return len(ix.buckets) }

// TableStats carries the optimizer's statistics for one table.
type TableStats struct {
	Rows     int
	Distinct map[string]int // per-column number of distinct non-null values
	NullFrac map[string]float64
}

// Stats returns the table's statistics, computing them on first use.
// Concurrent first uses compute once; the memoized value is shared and
// must be treated as immutable.
func (t *Table) Stats() *TableStats {
	t.mu.RLock()
	st := t.stats
	t.mu.RUnlock()
	if st != nil {
		return st
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stats != nil {
		return t.stats
	}
	st = &TableStats{
		Rows:     t.rel.Len(),
		Distinct: map[string]int{},
		NullFrac: map[string]float64{},
	}
	sch := t.rel.Scheme()
	for c := 0; c < sch.Len(); c++ {
		seen := map[string]struct{}{}
		nulls := 0
		var buf []byte
		for i := 0; i < t.rel.Len(); i++ {
			v := t.rel.RawRow(i)[c]
			if v.IsNull() {
				nulls++
				continue
			}
			buf = relation.AppendJoinKey(buf[:0], v)
			seen[string(buf)] = struct{}{}
		}
		name := sch.At(c).Name
		st.Distinct[name] = len(seen)
		if t.rel.Len() > 0 {
			st.NullFrac[name] = float64(nulls) / float64(t.rel.Len())
		}
	}
	t.stats = st
	return st
}

// Catalog is a set of tables. It implements expr.Source (by table
// relation) and the optimizer's scheme/statistics lookups. All methods
// are safe for concurrent use: a query server shares one catalog across
// every session, so lookups race with Adds from other sessions.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	epoch  atomic.Uint64 // current stats epoch; see StatsEpoch
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	c := &Catalog{tables: map[string]*Table{}}
	c.bumpEpoch()
	return c
}

// StatsEpoch returns the catalog's current statistics epoch. The epoch
// advances whenever table membership or planning-relevant table state
// (indexes, hence statistics and access paths) changes, and the values
// are unique process-wide: a plan cached under one epoch is never valid
// under any other, so cache entries keyed by (fingerprint, epoch) go
// stale the instant the data they were costed against changes.
func (c *Catalog) StatsEpoch() uint64 { return c.epoch.Load() }

// bumpEpoch advances the catalog to a fresh, process-unique epoch.
func (c *Catalog) bumpEpoch() { c.epoch.Store(statsEpoch.Add(1)) }

// Add registers a table, replacing any previous table of the same name.
// The table becomes visible before the epoch bump: a concurrent planner
// that observes the new epoch is therefore guaranteed to also observe
// the new table, so a plan can go stale-but-cached only in the window
// the plan cache's insert-time epoch revalidation closes.
func (c *Catalog) Add(t *Table) {
	c.mu.Lock()
	c.tables[t.Name()] = t
	c.mu.Unlock()
	t.setOnChange(c.bumpEpoch)
	c.bumpEpoch()
}

// Replace makes src's tables the catalog's, dropping every table it had,
// and moves to a fresh stats epoch, so no plan cached against the old
// tables is served again. Sessions holding the catalog see the new
// tables at once (a shell "restore"). src must not be used afterwards.
func (c *Catalog) Replace(src *Catalog) {
	src.mu.Lock()
	tables := src.tables
	src.mu.Unlock()
	c.mu.Lock()
	c.tables = tables
	c.mu.Unlock()
	for _, t := range tables {
		t.setOnChange(c.bumpEpoch)
	}
	c.bumpEpoch()
}

// AddRelation wraps and registers a relation under its name.
func (c *Catalog) AddRelation(name string, rel *relation.Relation) *Table {
	t := NewTable(name, rel)
	c.Add(t)
	return t
}

// Table returns a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	t, ok := c.tables[name]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: unknown table %s", name)
	}
	return t, nil
}

// Tables lists the table names, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Relation implements expr.Source.
func (c *Catalog) Relation(name string) (*relation.Relation, error) {
	t, err := c.Table(name)
	if err != nil {
		return nil, err
	}
	return t.Relation(), nil
}

// Scheme implements core.SchemeSource.
func (c *Catalog) Scheme(name string) (*relation.Scheme, error) {
	t, err := c.Table(name)
	if err != nil {
		return nil, err
	}
	return t.Scheme(), nil
}
