package exec

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"freejoin/internal/exec/spill"
	"freejoin/internal/predicate"
	"freejoin/internal/relation"
	"freejoin/internal/storage"
)

// TestGracePartitionBalance: the grace partitioner spreads 8,000 keys in
// steps of 20 within 25 % of the mean over 8 partitions at depths 0-3,
// and the keys one partition receives at depth d spread out again at
// depth d+1. The per-depth salt is what lets a re-partitioning split a
// partition that collided one level up.
func TestGracePartitionBalance(t *testing.T) {
	const parts = 8
	rows := make([][]relation.Value, 8000)
	for i := range rows {
		rows[i] = []relation.Value{relation.Int(int64(20 * i))}
	}
	split := func(depth int, rows [][]relation.Value) [][][]relation.Value {
		p := &partitioner{ws: make([]*spill.Writer, parts), keys: []int{0}, salt: partitionSalt(depth)}
		by := make([][][]relation.Value, parts)
		for _, r := range rows {
			i := p.part(r)
			by[i] = append(by[i], r)
		}
		mean := len(rows) / parts
		for i, b := range by {
			if d := len(b) - mean; 4*d > mean || -4*d > mean {
				t.Errorf("depth %d: partition %d holds %d of %d keys, mean %d", depth, i, len(b), len(rows), mean)
			}
		}
		return by
	}
	for depth := 0; depth <= 3; depth++ {
		by := split(depth, rows)
		split(depth+1, by[0])
	}
}

// TestBatchJoinsSharePoolsConcurrently: 8 goroutines run inner and left
// outer hash joins and the semijoin filter, 50 times each, all drawing
// build arenas, indexes, key sets and batch slabs from the same pools.
// Half of the runs are under a budget that forces the hash join into a
// grace spill and the filter onto its spilling nested-loop semijoin.
// Every answer is the reference algebra's bag, every governor drains and
// no spill file outlives its join. A chunk handed back to a pool while
// its join still reads it (say, before a grace partitioning has written
// it out) shows here as a wrong bag, or under -race.
func TestBatchJoinsSharePoolsConcurrently(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	key := func() relation.Value {
		switch k := rnd.Intn(120); {
		case k < 10:
			return relation.Null()
		case k < 30:
			return relation.Float(float64(k)) // joins the equal int
		default:
			return relation.Int(int64(k))
		}
	}
	r := relation.New(relation.SchemeOf("R", "k", "v"))
	for i := 0; i < 300; i++ {
		r.AppendRaw([]relation.Value{key(), relation.Int(int64(i))})
	}
	s := relation.New(relation.SchemeOf("S", "k", "w"))
	for i := 0; i < 200; i++ {
		s.AppendRaw([]relation.Value{key(), relation.Str(fmt.Sprintf("w%d", i))})
	}
	rt, st := storage.NewTable("R", r), storage.NewTable("S", s)
	p := predicate.Eq(relation.A("R", "k"), relation.A("S", "k"))
	modes := []JoinMode{InnerMode, LeftOuterMode}
	want := map[JoinMode]*relation.Relation{}
	for _, m := range append(modes, SemiMode) {
		want[m] = refFor(t, m, r, s, p)
	}
	dir := t.TempDir()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- func() error {
				size := []int{0, 64, 7, 33}[g%4]
				for i := 0; i < 50; i++ {
					mode, spilled := modes[(g+i)%2], i%4 >= 2
					budget := int64(1 << 30)
					if spilled {
						budget = 8 << 10
					}
					gov := NewGovernor(0, budget)
					ec := NewExecContext(context.Background(), gov)
					ec.EnableSpill(SpillConfig{Dir: dir})
					h, err := NewBatchHashJoin(NewBatchScan(rt, nil, size), NewBatchScan(st, nil, size),
						[]relation.Attr{relation.A("R", "k")}, []relation.Attr{relation.A("S", "k")}, nil, mode, nil, size)
					if err != nil {
						return err
					}
					got, err := CollectCtx(ec, h, nil)
					if err != nil {
						return fmt.Errorf("%s join, spilled %v: %w", mode, spilled, err)
					}
					if !got.EqualBag(want[mode]) {
						return fmt.Errorf("%s join, size %d, spilled %v: %d rows, want %d", mode, size, spilled, got.Len(), want[mode].Len())
					}
					if h.SpillInfo().Spilled() != spilled {
						return fmt.Errorf("%s join under budget %d: spilled %v, want %v", mode, budget, !spilled, spilled)
					}
					sr, err := NewBatchSemiReduce(NewBatchScan(rt, nil, size), NewBatchScan(st, nil, size), p, size)
					if err != nil {
						return err
					}
					if got, err = CollectCtx(ec, sr, nil); err != nil {
						return err
					}
					if !got.EqualBag(want[SemiMode]) {
						return fmt.Errorf("semijoin filter, size %d: %d rows, want %d", size, got.Len(), want[SemiMode].Len())
					}
					if gov.UsedRows() != 0 || gov.UsedBytes() != 0 || gov.UsedSpillBytes() != 0 {
						return fmt.Errorf("governor not drained: rows=%d bytes=%d spill=%d", gov.UsedRows(), gov.UsedBytes(), gov.UsedSpillBytes())
					}
				}
				return nil
			}()
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "ojspill-*")); len(files) != 0 {
		t.Errorf("spill files leaked: %v", files)
	}
}
