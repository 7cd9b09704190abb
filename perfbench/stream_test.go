package main

import (
	"slices"
	"testing"

	"productsort/internal/extsort"
	"productsort/internal/sort2d"
	"productsort/internal/workload"
)

// A traced stream sort's stages — read, run sort, spill write, merge,
// write — must
// add up to within stageTolerance of its wall time under the workload's
// own configuration, on an input large enough to spill and merge in
// several passes.
func TestStreamStagesSumToWallTime(t *testing.T) {
	engine, err := sort2d.ByName("auto")
	if err != nil {
		t.Fatal(err)
	}
	l := &streamLayers{tr: newTracer()}
	if l.prog, err = k2_10Program(engine); err != nil {
		t.Fatal(err)
	}
	keys := workload.Uniform(3_000_000, 3)
	st, wall, out, err := l.tracedSort(keys, extsort.Config{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(keys)
	slices.Sort(want)
	if !slices.Equal(out, want) {
		t.Fatal("traced sort output differs from slices.Sort")
	}
	if st.stats.SpilledBytes == 0 || st.stats.MergePasses < 2 {
		t.Fatalf("expected spill and several merge passes, got %+v", st.stats)
	}
	sum := st.read.acc + st.runsort.acc + st.spill.acc + st.merge() + st.write.acc
	t.Logf("stages sum to %v of wall %v (%+.2f%%)", sum, wall, 100*(float64(sum)/float64(wall)-1))
	if err := st.check(wall); err != nil {
		t.Fatal(err)
	}
	if st.read.acc <= 0 || st.runsort.acc <= 0 || st.write.acc <= 0 || st.merge() <= 0 {
		t.Fatalf("a stage is empty: read %v runsort %v write %v merge %v", st.read.acc, st.runsort.acc, st.write.acc, st.merge())
	}
	if root := l.tr.spans[0]; root.Name != "stream.sort" || root.End-root.Start != int64(wall) {
		t.Fatalf("root span %+v does not cover the sort's wall time %v", root, wall)
	}
}
