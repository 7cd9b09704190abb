package extsort

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestSortStreamCancelMidStream: cancelling mid-sort returns the
// context's error promptly, leaks no goroutine, leaves no spill file
// behind, and leaves the sorter reusable (pooled buffers intact). Run
// under -race in CI's extsort job.
func TestSortStreamCancelMidStream(t *testing.T) {
	sorter := compiledSorter(t)
	spillDir := t.TempDir()
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	rng := rand.New(rand.NewSource(5))
	var produced int
	src := FuncReader(func(dst []Key) (int, error) {
		// Cancel mid-stream, then keep producing: the tier must stop on
		// the context, not on EOF.
		if produced > 200_000 {
			cancel()
		}
		for i := range dst {
			dst[i] = Key(rng.Int63())
		}
		produced += len(dst)
		return len(dst), nil
	})
	cfg := Config{MemoryKeys: 1, SpillDir: spillDir} // a binary merge; everything past it spills
	done := make(chan error, 1)
	go func() {
		_, err := Sort(ctx, src, NewSliceWriter(), sorter, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Sort did not honor cancellation")
	}

	// No goroutine may outlive the cancelled sort. The batch replay's
	// workers join before return, so the count settles back to (at
	// most) the baseline; poll briefly to let exiting goroutines park.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("goroutines leaked: %d running, baseline %d", g, baseline)
	}

	// Spill files are unlinked at creation, so the spill dir must be
	// empty the moment Sort returns — cancelled or not.
	entries, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Fatalf("spill file left behind: %s", filepath.Join(spillDir, e.Name()))
	}

	// The sorter (and its pooled column slabs) must survive a
	// cancelled run: a fresh sort through the same sorter still works.
	keys := make([]Key, 5000)
	for i := range keys {
		keys[i] = Key(rng.Int63())
	}
	got, _ := runSort(t, keys, sorter, cfg)
	checkEqual(t, keys, got, "post-cancel reuse")
}

// TestSortStreamCancelBeforeStart: an already-cancelled context fails
// before any key is read.
func TestSortStreamCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reads := 0
	src := FuncReader(func(dst []Key) (int, error) { reads++; return len(dst), nil })
	_, err := Sort(ctx, src, NewSliceWriter(), SliceSorter{}, Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if reads != 0 {
		t.Fatalf("source read %d times under a dead context", reads)
	}
}
