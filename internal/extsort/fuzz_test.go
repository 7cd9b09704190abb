package extsort

import (
	"context"
	"sort"
	"testing"
)

// fuzzSeed is one FuzzSortStreamEquivalence input: a key seed, the
// input length, the run sorter's ceiling and the memory budget in
// quarters of spillBufKeys.
type fuzzSeed struct {
	seed   int64
	n      uint16
	runCap uint8
	budget uint16
}

// fuzzSeeds is the fuzz target's seed corpus. Seeds 1 and 4 cut the
// final pass into several partitions (TestFuzzSeedsSplitFinalMerge);
// seed 4's budget also leaves room for more than one final-pass
// worker on more than one core.
var fuzzSeeds = []fuzzSeed{
	{1, 100, 7, 0},
	{2, 40000, 16, 3},
	{-9, 1, 1, 8},
	{77, 1000, 1, 1},
	{5, 60000, 15, 200},
}

// FuzzSortStreamEquivalence: for fuzz-chosen input lengths, run
// sorter ceilings and memory budgets — the budget sets the spill
// point, the derived merge fan-in and the final pass's partitions —
// the streaming tier through the certified network run sorter must
// agree with sort.Slice exactly. Wired into `make fuzz` and
// `make extsort-fuzz`.
func FuzzSortStreamEquivalence(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s.seed, s.n, s.runCap, s.budget)
	}
	base := compiledSorter(f)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, runCap uint8, budget uint16) {
		checkFuzzSort(t, base, fuzzSeed{seed, n, runCap, budget}, NewSliceWriter())
	})
}

// keysWriter is a Writer that keeps what it was given.
type keysWriter interface {
	Writer
	Keys() []Key
}

// checkFuzzSort sorts one fuzz input into out and checks it against
// sort.Slice.
func checkFuzzSort(t *testing.T, base *NetworkSorter, s fuzzSeed, out keysWriter) {
	t.Helper()
	sorter := cappedSorter{base, 1 + int(s.runCap)%base.MaxRun()}
	// Budgets below the binary-merge floor clamp up to it; 0 is the
	// default budget.
	cfg := Config{MemoryKeys: int(s.budget) * spillBufKeys / 4, SpillDir: t.TempDir()}
	keys := make([]Key, int(s.n))
	x := uint64(s.seed)
	for i := range keys {
		x = x*6364136223846793005 + 1442695040888963407
		keys[i] = Key(x>>1) - 1<<62
	}
	stats, err := Sort(context.Background(), NewSliceReader(keys), out, sorter, cfg)
	if err != nil {
		t.Fatalf("Sort(n=%d maxRun=%d cfg=%+v): %v", s.n, sorter.max, cfg, err)
	}
	if stats.Keys != int64(len(keys)) {
		t.Fatalf("stats.Keys = %d, want %d", stats.Keys, len(keys))
	}
	got := out.Keys()
	want := append([]Key(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("%d keys out, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: got %d want %d (n=%d maxRun=%d cfg=%+v)", i, got[i], want[i], s.n, sorter.max, cfg)
		}
	}
}

// TestFuzzSeedsSplitFinalMerge: the seed corpus reaches the final
// pass's partitioning. Every partition but the last ends in a short
// block unless its size is a multiple of outBlockKeys, so two short
// writes mean at least two nonempty partitions.
func TestFuzzSeedsSplitFinalMerge(t *testing.T) {
	base := compiledSorter(t)
	for _, i := range []int{1, 4} {
		out := &shortWriteCounter{SliceWriter: NewSliceWriter()}
		checkFuzzSort(t, base, fuzzSeeds[i], out)
		if out.short < 2 {
			t.Fatalf("seed %d: %d short writes; its final pass did not split", i, out.short)
		}
	}
}

// shortWriteCounter counts the blocks shorter than outBlockKeys.
type shortWriteCounter struct {
	*SliceWriter
	short int
}

func (w *shortWriteCounter) Write(keys []Key) error {
	if len(keys) < outBlockKeys {
		w.short++
	}
	return w.SliceWriter.Write(keys)
}
