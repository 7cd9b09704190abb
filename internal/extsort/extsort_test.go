package extsort

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"productsort/internal/graph"
	"productsort/internal/obs"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/sort2d"
)

// compiledSorter builds the certified-network run sorter over a 16-node
// hypercube — small enough that every test shape exercises ragged-tail
// padding, real enough that the runs go through the same columnar
// replay production uses.
func compiledSorter(t testing.TB) *NetworkSorter {
	t.Helper()
	prog, err := schedule.Compile(product.MustNew(graph.K2(), 4), sort2d.Auto{})
	if err != nil {
		t.Fatal(err)
	}
	return NewNetworkSorter(prog, 1)
}

// cappedSorter lowers a run sorter's ceiling, and with it the run
// size Sort picks: min(1024, MaxRun()).
type cappedSorter struct {
	RunSorter
	max int
}

func (c cappedSorter) MaxRun() int { return c.max }

// oracle returns keys sorted by the standard library.
func oracle(keys []Key) []Key {
	want := append([]Key(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	return want
}

// runSort drives Sort over an in-memory stream and returns the output
// and stats.
func runSort(t *testing.T, keys []Key, sorter RunSorter, cfg Config) ([]Key, *Stats) {
	t.Helper()
	out := NewSliceWriter()
	stats, err := Sort(context.Background(), NewSliceReader(keys), out, sorter, cfg)
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	return out.Keys(), stats
}

// checkEqual fails unless got matches the oracle for keys.
func checkEqual(t *testing.T, keys, got []Key, label string) {
	t.Helper()
	want := oracle(keys)
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys out, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: mismatch at %d: got %d want %d", label, i, got[i], want[i])
		}
	}
}

// adversarialShapes is the oracle equivalence battery's input matrix:
// every shape the merge or the run former could plausibly mishandle.
func adversarialShapes(runSize int) map[string][]Key {
	shapes := map[string][]Key{}
	rng := rand.New(rand.NewSource(7))
	n := runSize*7 + 3 // ragged tail by construction
	asc := make([]Key, n)
	desc := make([]Key, n)
	eq := make([]Key, n)
	rnd := make([]Key, n)
	for i := 0; i < n; i++ {
		asc[i] = Key(i - n/2)
		desc[i] = Key(n/2 - i)
		eq[i] = 42
		rnd[i] = Key(rng.Int63n(1<<40) - 1<<39)
	}
	shapes["already-sorted"] = asc
	shapes["reverse"] = desc
	shapes["all-equal"] = eq
	shapes["random"] = rnd
	shapes["empty"] = nil
	shapes["one-key"] = []Key{-9}
	// Run-size boundaries: exactly k runs, one short, one over.
	for _, d := range []int{-1, 0, 1} {
		m := runSize*4 + d
		keys := make([]Key, m)
		for i := range keys {
			keys[i] = Key(rng.Int63())
		}
		shapes[fmt.Sprintf("runsize%+d", d)] = keys
	}
	// Exactly one run, and one run minus/plus one key.
	for _, m := range []int{runSize - 1, runSize, runSize + 1} {
		keys := make([]Key, m)
		for i := range keys {
			keys[i] = Key(rng.Int63()) - 1<<62
		}
		shapes[fmt.Sprintf("one-run-%d", m)] = keys
	}
	return shapes
}

// TestSortStreamOracleNetwork: the full battery through the certified
// network run sorter, under a budget that only fits a binary merge
// (maximum merge depth) and one wide enough for a single merge pass.
func TestSortStreamOracleNetwork(t *testing.T) {
	sorter := compiledSorter(t)
	runSize := sorter.MaxRun() // 16
	for _, fanIn := range []int{2, 64} {
		cfg := Config{MemoryKeys: (fanIn + 1) * spillBufKeys}
		for name, keys := range adversarialShapes(runSize) {
			t.Run(fmt.Sprintf("fanin%d/%s", fanIn, name), func(t *testing.T) {
				got, stats := runSort(t, keys, sorter, cfg)
				checkEqual(t, keys, got, name)
				if stats.MaxFanIn > fanIn {
					t.Fatalf("stats.MaxFanIn = %d above the budget's %d", stats.MaxFanIn, fanIn)
				}
				if want := int64(len(keys)); stats.Keys != want {
					t.Fatalf("stats.Keys = %d, want %d", stats.Keys, want)
				}
				if len(keys) > 0 && stats.Runs != int64((len(keys)+runSize-1)/runSize) {
					t.Fatalf("stats.Runs = %d for %d keys at run size %d", stats.Runs, len(keys), runSize)
				}
			})
		}
	}
}

// TestSortStreamSingleKeyRuns: a run sorter with MaxRun 1 degenerates
// run formation to per-key runs — the merge does all the sorting.
func TestSortStreamSingleKeyRuns(t *testing.T) {
	keys := []Key{5, -2, 9, 0, 0, -2, 7, 3, 3, 1}
	got, stats := runSort(t, keys, SliceSorter{Max: 1}, Config{MemoryKeys: 1})
	checkEqual(t, keys, got, "single-key runs")
	if stats.Runs != int64(len(keys)) {
		t.Fatalf("Runs = %d, want %d", stats.Runs, len(keys))
	}
	if stats.MergePasses < 3 {
		t.Fatalf("MergePasses = %d, want >= 3 for 10 runs under a binary-merge budget", stats.MergePasses)
	}
}

// TestSortStreamSpill: a resident budget far below the input forces
// runs and intermediate merges through the spill file, and the output
// must still match the oracle byte for byte.
func TestSortStreamSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := make([]Key, 80_000)
	for i := range keys {
		keys[i] = Key(rng.Int63() - 1<<62)
	}
	cfg := Config{
		MemoryKeys: 5 * spillBufKeys, // a 4-way merge at most; far below the input
		SpillDir:   t.TempDir(),
	}
	got, stats := runSort(t, keys, SliceSorter{Max: 512}, cfg)
	checkEqual(t, keys, got, "spill")
	if stats.SpilledRuns == 0 || stats.SpilledBytes == 0 {
		t.Fatalf("expected spilling, got stats %+v", stats)
	}
	if stats.MergePasses < 2 {
		t.Fatalf("MergePasses = %d, want >= 2 at fan-in 4 over %d runs", stats.MergePasses, stats.Runs)
	}
	if stats.FanIn != 4 {
		t.Fatalf("FanIn = %d, want 4 for %d runs under a 4-way budget", stats.FanIn, stats.Runs)
	}
}

// TestSortStreamSentinelKeys: keys at the sentinel value (MaxInt64)
// must survive the padding round-trip.
func TestSortStreamSentinelKeys(t *testing.T) {
	keys := []Key{schedule.Sentinel, 3, schedule.Sentinel, -1, 0, schedule.Sentinel - 1}
	sorter := cappedSorter{compiledSorter(t), 4}
	got, _ := runSort(t, keys, sorter, Config{MemoryKeys: 1})
	checkEqual(t, keys, got, "sentinel keys")
}

// recordingSorter wraps a RunSorter and snapshots every run after
// sorting — the battery's independence hook: runs are verified sorted
// on their own, so a merge bug cannot be masked by (or blamed on) the
// run sorter.
type recordingSorter struct {
	inner RunSorter
	runs  [][]Key
}

func (r *recordingSorter) MaxRun() int { return r.inner.MaxRun() }

func (r *recordingSorter) SortRuns(ctx context.Context, runs [][]Key) error {
	if err := r.inner.SortRuns(ctx, runs); err != nil {
		return err
	}
	for _, run := range runs {
		r.runs = append(r.runs, append([]Key(nil), run...))
	}
	return nil
}

// TestEveryRunSortedIndependently: the property test behind the merge's
// precondition. Every run handed to the merge is snapshotted and
// verified sorted with the stdlib — independently of whether the final
// output checks out — over randomized sizes and run sizes.
func TestEveryRunSortedIndependently(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := compiledSorter(t)
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(2000)
		runSize := 1 + rng.Intn(base.MaxRun())
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = Key(rng.Int63n(1024) - 512) // narrow domain: many duplicates
		}
		rec := &recordingSorter{inner: cappedSorter{base, runSize}}
		got, stats := runSort(t, keys, rec, Config{MemoryKeys: (3 + rng.Intn(8)) * spillBufKeys})
		var total int
		for i, run := range rec.runs {
			if !sort.SliceIsSorted(run, func(a, b int) bool { return run[a] < run[b] }) {
				t.Fatalf("trial %d: run %d (%d keys) entered the merge unsorted", trial, i, len(run))
			}
			total += len(run)
		}
		if total != n {
			t.Fatalf("trial %d: runs carry %d keys, input had %d", trial, total, n)
		}
		if int64(len(rec.runs)) != stats.Runs {
			t.Fatalf("trial %d: recorded %d runs, stats say %d", trial, len(rec.runs), stats.Runs)
		}
		checkEqual(t, keys, got, fmt.Sprintf("trial %d", trial))
	}
}

// brokenSorter leaves one run unsorted on purpose.
type brokenSorter struct{ calls int }

func (b *brokenSorter) MaxRun() int { return 64 }

func (b *brokenSorter) SortRuns(ctx context.Context, runs [][]Key) error {
	for _, run := range runs {
		b.calls++
		if b.calls == 2 {
			continue // leave the second run as it arrived
		}
		sort.Slice(run, func(i, j int) bool { return run[i] < run[j] })
	}
	return nil
}

// TestVerifyRunsCatchesBrokenSorter: with VerifyRuns set, an unsorted
// run is rejected with the typed error instead of feeding the merge.
func TestVerifyRunsCatchesBrokenSorter(t *testing.T) {
	keys := make([]Key, 256)
	for i := range keys {
		keys[i] = Key(255 - i)
	}
	_, err := Sort(context.Background(), NewSliceReader(keys), NewSliceWriter(),
		&brokenSorter{}, Config{VerifyRuns: true})
	if !errors.Is(err, ErrRunUnsorted) {
		t.Fatalf("err = %v, want ErrRunUnsorted", err)
	}
}

// TestSortConfigValidation: bad knobs fail fast with *ConfigError.
func TestSortConfigValidation(t *testing.T) {
	src := func() Reader { return NewSliceReader([]Key{1}) }
	cases := []struct {
		sorter RunSorter
		cfg    Config
	}{
		{SliceSorter{Max: 8}, Config{MemoryKeys: -1}},
		{cappedSorter{SliceSorter{}, 0}, Config{}}, // MaxRun below 1
	}
	for i, c := range cases {
		_, err := Sort(context.Background(), src(), NewSliceWriter(), c.sorter, c.cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("case %d (%+v): err = %v, want *ConfigError", i, c.cfg, err)
		}
	}
	if _, err := Sort(context.Background(), src(), NewSliceWriter(), nil, Config{}); !errors.Is(err, ErrNilSorter) {
		t.Fatalf("nil sorter: err = %v", err)
	}
}

// TestSortEmptyStream: an immediately-EOF source produces no output
// and no error.
func TestSortEmptyStream(t *testing.T) {
	out := NewSliceWriter()
	stats, err := Sort(context.Background(), FuncReader(func([]Key) (int, error) { return 0, io.EOF }),
		out, SliceSorter{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Keys()) != 0 || stats.Keys != 0 || stats.Runs != 0 {
		t.Fatalf("empty stream produced %d keys, stats %+v", len(out.Keys()), stats)
	}
}

// TestLoserTreeMerge: the tree against a heap-free reference across
// widths 1..33, including exhausted-at-start and duplicate-heavy
// cursors.
func TestLoserTreeMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 1; k <= 33; k++ {
		var all []Key
		handles := make([]runHandle, k)
		for i := range handles {
			n := rng.Intn(20) // sometimes zero: exhausted before the first pop
			run := make([]Key, n)
			for j := range run {
				run[j] = Key(rng.Intn(50))
			}
			sort.Slice(run, func(a, b int) bool { return run[a] < run[b] })
			all = append(all, run...)
			handles[i] = runHandle{mem: run}
		}
		lt := newLoserTree(handles, newScratch(nil))
		var got []Key
		for {
			v, ok := lt.pop()
			if !ok {
				break
			}
			got = append(got, v)
		}
		if err := lt.fail(); err != nil {
			t.Fatal(err)
		}
		checkEqual(t, all, got, fmt.Sprintf("k=%d", k))
	}
}

// TestMergeWidth: the derived fan-in takes one pass while the runs fit
// the budget's widest merge, the fewest passes otherwise — at most 2 up
// to kMax² runs at the default budget — with the narrowest width that
// still finishes in them, never below 2.
func TestMergeWidth(t *testing.T) {
	cases := []struct{ runs, memoryKeys, k, passes int }{
		{1, defaultMemoryKeys, 2, 1},
		{2, defaultMemoryKeys, 2, 1},
		{511, defaultMemoryKeys, 511, 1},
		{512, defaultMemoryKeys, 23, 2},
		{3907, defaultMemoryKeys, 63, 2}, // 4M keys in 1024-key runs
		{261_121, defaultMemoryKeys, 511, 2},
		{261_122, defaultMemoryKeys, 64, 3},
		{8, 3 * spillBufKeys, 2, 3},
		{157, 5 * spillBufKeys, 4, 4},
	}
	for _, c := range cases {
		k := mergeWidth(c.runs, c.memoryKeys)
		if passes := mergePasses(c.runs, k); k != c.k || passes != c.passes {
			t.Errorf("mergeWidth(%d, %d) = %d (%d passes), want %d (%d passes)", c.runs, c.memoryKeys, k, passes, c.k, c.passes)
		}
	}
	for _, budget := range []int{3 * spillBufKeys, 10 * spillBufKeys, defaultMemoryKeys} {
		kMax := budget/spillBufKeys - 1
		for runs := 1; runs <= 300_000; runs += 1 + runs/97 {
			k := mergeWidth(runs, budget)
			passes := mergePasses(runs, k)
			if k < 2 || k > kMax {
				t.Fatalf("mergeWidth(%d, %d): width %d outside [2, %d]", runs, budget, k, kMax)
			}
			if (runs <= kMax) != (passes == 1) {
				t.Fatalf("mergeWidth(%d, %d): %d passes with the widest merge %d", runs, budget, passes, kMax)
			}
			if budget == defaultMemoryKeys && runs <= kMax*kMax && passes > 2 {
				t.Fatalf("mergeWidth(%d): %d passes at the default budget", runs, passes)
			}
			if passes > mergePasses(runs, kMax) {
				t.Fatalf("mergeWidth(%d, %d) = %d takes %d passes, the widest merge %d takes fewer", runs, budget, k, passes, kMax)
			}
			if k > 2 && mergePasses(runs, k-1) == passes {
				t.Fatalf("mergeWidth(%d, %d): width %d is not the narrowest for %d passes", runs, budget, k, passes)
			}
		}
	}
}

// TestMergeFreesConsumedRuns: once the merge starts the store no longer
// holds the handles, and an intermediate pass clears every handle it
// consumed, so resident runs become garbage as they are merged instead
// of living until Sort returns.
func TestMergeFreesConsumedRuns(t *testing.T) {
	stats := &Stats{}
	st := newRunStore(t.TempDir(), defaultMemoryKeys, stats, nil)
	defer st.close()
	rng := rand.New(rand.NewSource(17))
	var keys []Key
	for range 7 {
		run := make([]Key, 10)
		for i := range run {
			run[i] = Key(rng.Intn(100))
		}
		keys = append(keys, run...)
		if err := st.add(oracle(run)); err != nil {
			t.Fatal(err)
		}
	}
	handles := st.runs // shares the array the first pass consumes
	out := NewSliceWriter()
	if err := mergeRuns(context.Background(), st, out, Config{MemoryKeys: 3 * spillBufKeys}, stats, nil); err != nil {
		t.Fatal(err)
	}
	if stats.MergePasses != 3 {
		t.Fatalf("MergePasses = %d, want 3 for 7 runs in a binary merge", stats.MergePasses)
	}
	if st.runs != nil {
		t.Fatalf("store still holds %d handles after the merge", len(st.runs))
	}
	for i, h := range handles {
		if h.mem != nil {
			t.Fatalf("handle %d still holds its %d resident keys after the first pass", i, len(h.mem))
		}
	}
	checkEqual(t, keys, out.Keys(), "merged")
}

// withProcs runs fn at GOMAXPROCS procs and restores the old value.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestMergeIndependentOfProcs: the merge runs on every core, but its
// output and every non-timing Stats field are the same at GOMAXPROCS
// 1, 2 and 4 — across one resident pass, a spilling pass and
// multi-pass budgets — and MergePassNs has one entry per pass, which
// the extsort.merge.pass_ns histogram also counts.
func TestMergeIndependentOfProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	keys := make([]Key, 100_000)
	for i := range keys {
		keys[i] = Key(rng.Int63n(1<<20) - 1<<19) // duplicates across runs
	}
	for _, memoryKeys := range []int{0, 3 * spillBufKeys, 5 * spillBufKeys, 64 * spillBufKeys} {
		var (
			want      []Key
			wantStats Stats
		)
		for _, procs := range []int{1, 2, 4} {
			m := obs.NewMetrics()
			var (
				out   *SliceWriter
				stats *Stats
				err   error
			)
			withProcs(procs, func() {
				out = NewSliceWriter()
				cfg := Config{MemoryKeys: memoryKeys, SpillDir: t.TempDir(), Metrics: m}
				stats, err = Sort(context.Background(), NewSliceReader(keys), out, SliceSorter{Max: 512}, cfg)
			})
			if err != nil {
				t.Fatalf("budget %d, procs %d: %v", memoryKeys, procs, err)
			}
			if len(stats.MergePassNs) != stats.MergePasses {
				t.Fatalf("budget %d, procs %d: %d pass times for %d passes", memoryKeys, procs, len(stats.MergePassNs), stats.MergePasses)
			}
			if n := m.Histogram("extsort.merge.pass_ns", obs.DurationBucketsNs).Count(); n != int64(stats.MergePasses) {
				t.Fatalf("budget %d, procs %d: extsort.merge.pass_ns counted %d passes, want %d", memoryKeys, procs, n, stats.MergePasses)
			}
			got := *stats
			got.RunFormNs, got.RunSortNs, got.MergeNs, got.MergePassNs = 0, 0, 0, nil
			if procs == 1 {
				want, wantStats = out.Keys(), got
				checkEqual(t, keys, want, fmt.Sprintf("budget %d", memoryKeys))
				continue
			}
			if !slices.Equal(out.Keys(), want) {
				t.Fatalf("budget %d: output at GOMAXPROCS %d differs from GOMAXPROCS 1", memoryKeys, procs)
			}
			if !reflect.DeepEqual(got, wantStats) {
				t.Fatalf("budget %d: stats at GOMAXPROCS %d = %+v, at 1 = %+v", memoryKeys, procs, got, wantStats)
			}
		}
	}
}

// TestFinalMergeSkewedKeys: when every key is equal, or there are only
// two, the splitters coincide and one partition holds most keys. The
// merge still sorts, and however far the workers run ahead of a slow
// writer, the output blocks in flight stay within the derived bound.
func TestFinalMergeSkewedKeys(t *testing.T) {
	inputs := map[string]func(i int) Key{
		"all-equal": func(int) Key { return 42 },
		"two-valued": func(i int) Key {
			if i%3 == 0 {
				return -1
			}
			return 1
		},
	}
	for name, key := range inputs {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers%d", name, workers), func(t *testing.T) {
				stats := &Stats{}
				// Half the runs stay resident, half spill with fences.
				st := newRunStore(t.TempDir(), 32*spillBufKeys, stats, nil)
				defer st.close()
				var keys []Key
				for r := range 64 {
					run := make([]Key, spillBufKeys)
					for i := range run {
						run[i] = key(r*len(run) + i)
					}
					keys = append(keys, run...)
					if err := st.add(oracle(run)); err != nil {
						t.Fatal(err)
					}
				}
				fm := newFinalMerge(3*spillBufKeys, workers)
				if parts := len(splitters(st.runs, fm.partKeys())) + 1; parts < 8 {
					t.Fatalf("%d partitions, want several", parts)
				}
				out := NewSliceWriter()
				slow := writerFunc(func(b []Key) error {
					runtime.Gosched() // let the workers run ahead
					return out.Write(b)
				})
				if err := fm.run(context.Background(), st.file, st.runs, slow); err != nil {
					t.Fatal(err)
				}
				checkEqual(t, keys, out.Keys(), name)
				if made, bound := fm.made.Load(), int64(fm.maxBlocks()); made > bound {
					t.Fatalf("%d output blocks in flight, bound %d", made, bound)
				}
			})
		}
	}
}

// writerFunc adapts a function to Writer.
type writerFunc func([]Key) error

func (f writerFunc) Write(keys []Key) error { return f(keys) }
