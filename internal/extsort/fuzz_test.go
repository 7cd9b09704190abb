package extsort

import (
	"context"
	"sort"
	"testing"
)

// FuzzSortStreamEquivalence: for fuzz-chosen input lengths, run
// sorter ceilings and memory budgets — the budget sets both the spill
// point and the derived merge fan-in — the streaming tier through the
// certified network run sorter must agree with sort.Slice exactly.
// Wired into `make fuzz` and `make extsort-fuzz`.
func FuzzSortStreamEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(7), uint16(0))
	f.Add(int64(2), uint16(40000), uint8(16), uint16(3))
	f.Add(int64(-9), uint16(1), uint8(1), uint16(8))
	f.Add(int64(77), uint16(1000), uint8(1), uint16(1))
	base := compiledSorter(f)
	maxRun := base.MaxRun()
	f.Fuzz(func(t *testing.T, seed int64, n uint16, runCap uint8, budget uint16) {
		sorter := cappedSorter{base, 1 + int(runCap)%maxRun}
		// Budgets below the binary-merge floor clamp up to it; 0 is
		// the default budget.
		cfg := Config{MemoryKeys: int(budget) * spillBufKeys / 4, SpillDir: t.TempDir()}
		keys := make([]Key, int(n))
		x := uint64(seed)
		for i := range keys {
			x = x*6364136223846793005 + 1442695040888963407
			keys[i] = Key(x>>1) - 1<<62
		}
		out := NewSliceWriter()
		stats, err := Sort(context.Background(), NewSliceReader(keys), out, sorter, cfg)
		if err != nil {
			t.Fatalf("Sort(n=%d maxRun=%d cfg=%+v): %v", n, sorter.max, cfg, err)
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
				t.Fatalf("mismatch at %d: got %d want %d (n=%d maxRun=%d cfg=%+v)", i, got[i], want[i], n, sorter.max, cfg)
			}
		}
	})
}
