// Eviction and admission stress. Run under -race these are the
// store's and the admission counter's concurrency gates; `make
// store-stress` extends them via STRESS_MS.

package serve

import (
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"productsort/internal/schedule"
)

// stressDuration returns the stress length: short by default so plain
// `go test` always exercises it, extended via STRESS_MS in CI.
func stressDuration() time.Duration {
	if ms := os.Getenv("STRESS_MS"); ms != "" {
		if v, err := strconv.Atoi(ms); err == nil && v > 0 {
			return time.Duration(v) * time.Millisecond
		}
	}
	return 200 * time.Millisecond
}

// TestPlanStoreEvictionStress: goroutines cycle through more plans
// than a capacity-1 store holds, so nearly every lap evicts the
// program another goroutine is replaying. Every replay must still come
// out sorted: eviction only unpublishes a program, and the GC keeps it
// alive for whoever still holds it.
func TestPlanStoreEvictionStress(t *testing.T) {
	pl, plans := testPlans(t)
	s := NewPlanStore(1, nil)
	deadline := time.Now().Add(stressDuration())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := schedule.NewColumnBuffer()
			seed := uint64(g)*0x9e3779b97f4a7c15 + 1
			for i := 0; time.Now().Before(deadline); i++ {
				p := plans[(g+i)%len(plans)]
				prog, pin, err := s.Acquire(p, pl.Engine())
				if err != nil {
					t.Error(err)
					return
				}
				keys := make([]Key, 1+i%p.Nodes())
				for j := range keys {
					seed = seed*6364136223846793005 + 1442695040888963407
					keys[j] = Key(seed >> 33)
				}
				err = schedule.RunBatchColumnar(prog, [][]Key{keys}, 1, buf)
				pin.Release()
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.IsSorted(keys) {
					t.Errorf("goroutine %d lap %d: %s left keys unsorted", g, i, p.Name())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Evictions == 0 || st.Resident != 1 {
		t.Fatalf("stats = %+v, want evictions and exactly 1 resident", st)
	}
	t.Logf("stress: %d hits, %d misses, %d evictions over %v", st.Hits, st.Misses, st.Evictions, stressDuration())
}

// admissionBucket is a bucket with just enough server behind it for
// reserve: the queue depth.
func admissionBucket(depth int) *bucket {
	return &bucket{srv: &Server{cfg: Config{QueueDepth: depth}}}
}

// TestAdmissionExactBound: a bucket admits exactly QueueDepth holders,
// and a release reopens admission.
func TestAdmissionExactBound(t *testing.T) {
	for _, depth := range []int{1, 2, 8} {
		b := admissionBucket(depth)
		for i := 0; i < depth; i++ {
			if !b.reserve() {
				t.Fatalf("depth=%d: reserve %d refused below bound", depth, i)
			}
		}
		if b.reserve() {
			t.Fatalf("depth=%d: admitted past the bound", depth)
		}
		b.outstanding.Add(-1)
		if !b.reserve() {
			t.Fatalf("depth=%d: release did not reopen admission", depth)
		}
		if got := b.outstanding.Load(); got != int64(depth) {
			t.Fatalf("depth=%d: outstanding = %d after refusals, want %d", depth, got, depth)
		}
	}
}

// TestAdmissionNeverOverAdmits: under concurrent reserve/release churn
// the held count never exceeds the bound — add-then-undo keeps it
// exact — and the counter returns to zero.
func TestAdmissionNeverOverAdmits(t *testing.T) {
	const depth = 8
	b := admissionBucket(depth)
	var held, peak, overs atomic.Int64
	deadline := time.Now().Add(stressDuration() / 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if !b.reserve() {
					continue
				}
				h := held.Add(1)
				if h > depth {
					overs.Add(1)
				}
				for {
					p := peak.Load()
					if h <= p || peak.CompareAndSwap(p, h) {
						break
					}
				}
				held.Add(-1)
				b.outstanding.Add(-1)
			}
		}()
	}
	wg.Wait()
	if o := overs.Load(); o != 0 {
		t.Fatalf("admission over-admitted %d times (bound %d)", o, depth)
	}
	if got := b.outstanding.Load(); got != 0 {
		t.Fatalf("outstanding = %d after all releases, want 0", got)
	}
	t.Logf("peak concurrent holders: %d/%d", peak.Load(), depth)
}
