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

// errSinkFull is the failing Writer's error.
var errSinkFull = errors.New("sink full")

// TestSortStreamCancelMidStream: cancelling mid-sort — during run
// formation or during the parallel final pass — or a Writer failing on
// its Nth block returns that error promptly, leaks no goroutine,
// leaves no spill file behind, and leaves the sorter reusable (pooled
// buffers intact). Run under -race at -cpu=1,2,4 by make
// extsort-battery.
func TestSortStreamCancelMidStream(t *testing.T) {
	sorter := compiledSorter(t)
	rng := rand.New(rand.NewSource(5))
	// The final-pass cases sort a finite input whose final pass has
	// several partitions and, on more than one core, several workers.
	finite := make([]Key, 300_000)
	for i := range finite {
		finite[i] = Key(rng.Int63())
	}
	finalCfg := Config{MemoryKeys: 64 * spillBufKeys}
	cases := []struct {
		name   string
		cfg    Config
		sorter RunSorter
		// src and dst build the endpoints; cancel cancels the sort's ctx.
		src  func(cancel func()) Reader
		dst  func(cancel func()) Writer
		want error
	}{
		{
			name:   "run-formation",
			cfg:    Config{MemoryKeys: 1}, // a binary merge; everything past it spills
			sorter: sorter,
			src: func(cancel func()) Reader {
				var produced int
				return FuncReader(func(dst []Key) (int, error) {
					// Cancel mid-stream, then keep producing: the tier must
					// stop on the context, not on EOF.
					if produced > 200_000 {
						cancel()
					}
					for i := range dst {
						dst[i] = Key(rng.Int63())
					}
					produced += len(dst)
					return len(dst), nil
				})
			},
			dst:  func(func()) Writer { return NewSliceWriter() },
			want: context.Canceled,
		},
		{
			name:   "final-pass-cancel",
			cfg:    finalCfg,
			sorter: SliceSorter{Max: 1024},
			src:    func(func()) Reader { return NewSliceReader(finite) },
			dst: func(cancel func()) Writer {
				return onWrite(10, func() error { cancel(); return nil })
			},
			want: context.Canceled,
		},
		{
			name:   "final-pass-writer-fails",
			cfg:    finalCfg,
			sorter: SliceSorter{Max: 1024},
			src:    func(func()) Reader { return NewSliceReader(finite) },
			dst:    func(func()) Writer { return onWrite(10, func() error { return errSinkFull }) },
			want:   errSinkFull,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spillDir := t.TempDir()
			cfg := c.cfg
			cfg.SpillDir = spillDir
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := Sort(ctx, c.src(cancel), c.dst(cancel), c.sorter, cfg)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, c.want) {
					t.Fatalf("err = %v, want %v", err, c.want)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Sort did not stop")
			}

			// No goroutine may outlive the failed sort. The batch
			// replay's workers and the merge's workers join before
			// return, so the count settles back to (at most) the
			// baseline; poll briefly to let exiting goroutines park.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > baseline {
				t.Fatalf("goroutines leaked: %d running, baseline %d", g, baseline)
			}

			// Spill files are unlinked at creation, so the spill dir must
			// be empty the moment Sort returns — failed or not.
			entries, err := os.ReadDir(spillDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				t.Fatalf("spill file left behind: %s", filepath.Join(spillDir, e.Name()))
			}

			// The sorter (and its pooled column slabs) must survive a
			// failed run: a fresh sort through the same sorter still works.
			keys := make([]Key, 5000)
			for i := range keys {
				keys[i] = Key(rng.Int63())
			}
			got, _ := runSort(t, keys, sorter, cfg)
			checkEqual(t, keys, got, "post-failure reuse")
		})
	}
}

// onWrite returns a Writer that discards its blocks and calls f on the
// nth, returning f's error.
func onWrite(n int, f func() error) Writer {
	writes := 0
	return writerFunc(func([]Key) error {
		if writes++; writes == n {
			return f()
		}
		return nil
	})
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
