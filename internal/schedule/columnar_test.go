package schedule

import (
	"runtime"
	"runtime/debug"
	"testing"

	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/simnet"
)

// TestLoweredComparatorsEquivalence: replaying the lowered snake-space
// comparator stream over a snake-indexed array must equal replaying the
// program's ops over a node-indexed array — they are the same
// computation conjugated by the snake permutation.
func TestLoweredComparatorsEquivalence(t *testing.T) {
	for _, build := range []func() *product.Network{
		func() *product.Network { return product.MustNew(graph.Path(4), 2) },
		func() *product.Network { return product.MustNew(graph.K2(), 3) },
		func() *product.Network { return product.MustNew(graph.CompleteBinaryTree(2), 2) },
	} {
		net := build()
		prog, err := Compile(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		perm := prog.SnakePerm()
		comps := prog.LoweredComparators()
		if len(comps) != prog.Size() {
			t.Fatalf("%s: %d lowered comparators, program size %d", net.Name(), len(comps), prog.Size())
		}
		keys := mixedBatch([]int{net.Nodes()}, 11)[0]
		// Node-space replay of a snake-order item.
		byNode := make([]simnet.Key, len(keys))
		for pos, k := range keys {
			byNode[perm[pos]] = k
		}
		if _, err := (ExecBackend{}).Run(prog, byNode); err != nil {
			t.Fatal(err)
		}
		// Snake-space replay of the lowered stream, width 1.
		snake := make([]simnet.Key, len(keys))
		copy(snake, keys)
		applyComparators(snake, comps, 1)
		for pos := range snake {
			if snake[pos] != byNode[perm[pos]] {
				t.Fatalf("%s: lowered replay diverges at snake pos %d", net.Name(), pos)
			}
		}
	}
}

// TestRunBatchColumnarMixedSizes checks the columnar replay against the
// reference sort for items spanning every admissible length,
// sequentially and tiled across workers, with and without a shared
// buffer.
func TestRunBatchColumnarMixedSizes(t *testing.T) {
	net := product.MustNew(graph.Path(4), 2) // 16 nodes
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{1, 5, 16, 9, 16, 2, 13, 7, 16, 3, 11, 1, 16, 8, 4, 15, 6, 16, 10, 12}
	for _, workers := range []int{1, 3, 0} {
		for _, buf := range []*ColumnBuffer{nil, NewColumnBuffer()} {
			batch := mixedBatch(sizes, int64(workers)+13)
			want := make([][]simnet.Key, len(batch))
			for i, keys := range batch {
				want[i] = sortedCopy(keys)
			}
			if err := RunBatchColumnar(prog, batch, workers, buf); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i, keys := range batch {
				if len(keys) != sizes[i] {
					t.Fatalf("workers=%d: item %d resized to %d", workers, i, len(keys))
				}
				for j := range keys {
					if keys[j] != want[i][j] {
						t.Fatalf("workers=%d item %d: got %v want %v", workers, i, keys, want[i])
					}
				}
			}
		}
	}
}

// execSnake is the reference for one snake-order item: pad it with
// Sentinel to the network's size in node order, replay it through the
// ExecBackend oracle, and read the item's snake prefix back.
func execSnake(prog *Program, scratch, keys []simnet.Key) error {
	perm := prog.SnakePerm()
	for pos := range scratch {
		scratch[perm[pos]] = Sentinel
	}
	for pos, k := range keys {
		scratch[perm[pos]] = k
	}
	if _, err := (ExecBackend{}).Run(prog, scratch); err != nil {
		return err
	}
	for pos := range keys {
		keys[pos] = scratch[perm[pos]]
	}
	return nil
}

// TestRunBatchColumnarMatchesSnake: the columnar replay and a per-item,
// snake-order ExecBackend.Run replay the same program, so on identical
// input batches they must produce identical output — not merely both
// sorted.
func TestRunBatchColumnarMatchesSnake(t *testing.T) {
	net := product.MustNew(graph.K2(), 4) // 16 nodes
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{16, 1, 9, 16, 3, 12, 16, 7}
	rows := mixedBatch(sizes, 29)
	cols := mixedBatch(sizes, 29)
	scratch := make([]simnet.Key, net.Nodes())
	for _, keys := range rows {
		if err := execSnake(prog, scratch, keys); err != nil {
			t.Fatal(err)
		}
	}
	if err := RunBatchColumnar(prog, cols, 1, nil); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		for j := range rows[i] {
			if rows[i][j] != cols[i][j] {
				t.Fatalf("item %d pos %d: exec %d, columnar %d", i, j, rows[i][j], cols[i][j])
			}
		}
	}
}

// TestRunBatchColumnarRejectsBadSizes: empty and oversized items are
// errors, an empty batch is a no-op.
func TestRunBatchColumnarRejectsBadSizes(t *testing.T) {
	net := product.MustNew(graph.K2(), 3) // 8 nodes
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunBatchColumnar(prog, [][]simnet.Key{make([]simnet.Key, 9)}, 1, nil); err == nil {
		t.Fatal("oversized item accepted")
	}
	if err := RunBatchColumnar(prog, [][]simnet.Key{{}}, 1, nil); err == nil {
		t.Fatal("empty item accepted")
	}
	if err := RunBatchColumnar(prog, nil, 1, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestColumnBatchLayout pins the slab layout the kernels assume:
// column pos is slab[pos*width:(pos+1)*width], Column returns a live
// view of it, and LoadSnake puts set s's position pos at index s of
// column pos (Sentinel past the set's end).
func TestColumnBatchLayout(t *testing.T) {
	var cb ColumnBatch
	cb.Reset(3, 2)
	if cb.Width() != 2 {
		t.Fatalf("Width() = %d, want 2", cb.Width())
	}
	cb.LoadSnake([][]simnet.Key{{10, 11, 12}, {20}})
	want := [][]simnet.Key{{10, 20}, {11, Sentinel}, {12, Sentinel}}
	for pos, col := range want {
		got := cb.Column(pos)
		if len(got) != 2 || got[0] != col[0] || got[1] != col[1] {
			t.Fatalf("Column(%d) = %v, want %v", pos, got, col)
		}
	}
	cb.Column(1)[1] = 99 // live view: writes land in the slab
	out := [][]simnet.Key{make([]simnet.Key, 3), make([]simnet.Key, 2)}
	cb.StoreSnake(out)
	if out[1][1] != 99 {
		t.Fatalf("Column write not visible through StoreSnake: %v", out)
	}
}

// TestRunBatchColumnarZeroAlloc pins the warm columnar path at zero
// allocations per item, in both shapes the serving layer exercises: a
// single warm flush, and repeated flushes reusing the pooled column
// slabs (including a narrower flush that must recycle the wider slab).
func TestRunBatchColumnarZeroAlloc(t *testing.T) {
	net := product.MustNew(graph.K2(), 4) // 16 nodes
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := NewColumnBuffer()
	const items = 8
	batch := mixedBatch([]int{16, 12, 16, 9, 16, 16, 5, 16}[:items], 3)
	narrow := mixedBatch([]int{16, 7, 16}, 5)
	// Warm the pool, the snake permutation and the lowered stream.
	if err := RunBatchColumnar(prog, batch, 1, buf); err != nil {
		t.Fatal(err)
	}
	// A GC landing mid-measurement may clear the slab pool and charge a
	// refill to one unlucky iteration; park the collector so the numbers
	// measure reuse, not collection timing (the stdlib sync.Pool tests
	// do the same).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	allocs := testing.AllocsPerRun(50, func() {
		if err := RunBatchColumnar(prog, batch, 1, buf); err != nil {
			t.Fatal(err)
		}
	})
	if perItem := allocs / items; perItem > 0.25 {
		t.Fatalf("warm single flush allocates %.2f objects/item (%.1f/call); want ~0", perItem, allocs)
	}

	if raceEnabled {
		// Race mode makes sync.Pool drop Puts at random, so strict
		// reuse cannot hold; the single-flush pin above (with its
		// refill slack) still runs.
		return
	}
	allocs = testing.AllocsPerRun(50, func() {
		for rep := 0; rep < 3; rep++ {
			if err := RunBatchColumnar(prog, batch, 1, buf); err != nil {
				t.Fatal(err)
			}
			if err := RunBatchColumnar(prog, narrow, 1, buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perFlush := allocs / 6; perFlush > 0.25 {
		t.Fatalf("repeated flushes allocate %.2f objects/flush (%.1f/run); want ~0", perFlush, allocs)
	}
}

// TestRunBatchColumnarWorkersClamp: the default worker count never
// exceeds GOMAXPROCS and small batches stay inline (one tile), so the
// fan-out convention holds on every box.
func TestRunBatchColumnarWorkersClamp(t *testing.T) {
	net := product.MustNew(graph.K2(), 3)
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A batch smaller than one tile must sort correctly with any
	// requested fan-out (the clamp sends it down the inline path).
	batch := mixedBatch([]int{8, 3}, 17)
	want := [][]simnet.Key{sortedCopy(batch[0]), sortedCopy(batch[1])}
	if err := RunBatchColumnar(prog, batch, 4*runtime.GOMAXPROCS(0), nil); err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		for j := range batch[i] {
			if batch[i][j] != want[i][j] {
				t.Fatalf("item %d: got %v want %v", i, batch[i], want[i])
			}
		}
	}
}

// BenchmarkBatchRowsVsColumns is the kernel head-to-head behind the
// BENCH_schedule.json rows-vs-columns columns: the same 32-set batch on
// a 64-node network through a row-at-a-time ExecBackend.Run loop and
// the columnar kernel.
func BenchmarkBatchRowsVsColumns(b *testing.B) {
	net := product.MustNew(graph.Path(8), 2) // 64 nodes
	prog, err := Compile(net, nil)
	if err != nil {
		b.Fatal(err)
	}
	sizes := make([]int, 32)
	for i := range sizes {
		sizes[i] = 64
	}

	b.Run("rows", func(b *testing.B) {
		scratch := make([]simnet.Key, net.Nodes())
		batch := mixedBatch(sizes, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, keys := range batch {
				if err := execSnake(prog, scratch, keys); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("columns", func(b *testing.B) {
		buf := NewColumnBuffer()
		batch := mixedBatch(sizes, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := RunBatchColumnar(prog, batch, 1, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
