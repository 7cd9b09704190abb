package serve

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/sort2d"
)

// testPlans builds a planner over three distinct small topologies and
// returns its plans ascending by size.
func testPlans(t *testing.T) (*Planner, []*Plan) {
	t.Helper()
	pl, err := NewPlanner([]*product.Network{
		product.MustNew(graph.K2(), 2),    // 4 nodes
		product.MustNew(graph.Path(3), 2), // 9 nodes
		product.MustNew(graph.K2(), 4),    // 16 nodes
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pl, pl.Plans()
}

// acquire is a must-succeed Acquire.
func acquire(t *testing.T, s *PlanStore, p *Plan, e sort2d.Engine) *schedule.Program {
	t.Helper()
	prog, pin, err := s.Acquire(p, e)
	if err != nil {
		t.Fatal(err)
	}
	if prog == nil {
		t.Fatal("Acquire returned nil program")
	}
	pin.Release()
	return prog
}

// TestPlanStoreHitMissEvict: basic residency semantics — repeat
// lookups hit, capacity evicts, counters and Len stay exact.
func TestPlanStoreHitMissEvict(t *testing.T) {
	pl, plans := testPlans(t)
	s := NewPlanStore(2, nil)

	progA := acquire(t, s, plans[0], pl.Engine())  // miss
	progA2 := acquire(t, s, plans[0], pl.Engine()) // hit
	if progA != progA2 {
		t.Fatal("hit returned a different program than the miss compiled")
	}
	acquire(t, s, plans[1], pl.Engine()) // miss
	acquire(t, s, plans[2], pl.Engine()) // miss; evicts one

	st := s.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Evictions != 1 || st.Resident != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 3 misses / 1 eviction / 2 resident", st)
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

// TestPlanStoreLRUVictim: once hits have aged the stamps past the
// grain, the least recently used entry is the one displaced; among
// entries no hit has restamped, the earliest published goes first.
func TestPlanStoreLRUVictim(t *testing.T) {
	pl, plans := testPlans(t)
	s := NewPlanStore(2, nil)

	progA := acquire(t, s, plans[0], pl.Engine())
	acquire(t, s, plans[1], pl.Engine())
	// Touch A until its stamp moves past B's, so B is the victim.
	for i := 0; i <= recencyGrain; i++ {
		acquire(t, s, plans[0], pl.Engine())
	}
	acquire(t, s, plans[2], pl.Engine()) // evicts B

	if progA3 := acquire(t, s, plans[0], pl.Engine()); progA3 != progA {
		t.Fatal("recently used entry was evicted")
	}
	if st := s.Stats(); st.Misses != 3 {
		t.Fatalf("misses = %d, want 3 (B evicted, A retained)", st.Misses)
	}
	// Neither A nor C has been restamped since C's publication, so the
	// earlier published, A, goes when B comes back.
	acquire(t, s, plans[1], pl.Engine())
	acquire(t, s, plans[2], pl.Engine())
	if st := s.Stats(); st.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (B recompiled, C retained)", st.Misses)
	}
}

// TestPlanStoreReaderNeverSeesRetired: a program evicted while a
// reader still holds it stays whole and keeps sorting, and a new
// reader of the same key gets a freshly compiled program, never the
// evicted one.
func TestPlanStoreReaderNeverSeesRetired(t *testing.T) {
	pl, plans := testPlans(t)
	s := NewPlanStore(1, nil) // capacity 1: every new key evicts

	progA := acquire(t, s, plans[0], pl.Engine())
	acquire(t, s, plans[1], pl.Engine()) // evicts A while it is held

	progA2 := acquire(t, s, plans[0], pl.Engine())
	if progA2 == progA {
		t.Fatal("reader observed the evicted program")
	}
	keys := []Key{3, 1, 2}
	if err := schedule.RunBatchColumnar(progA, [][]Key{keys}, 1, nil); err != nil {
		t.Fatalf("replay of a held, evicted program: %v", err)
	}
	if !slices.IsSorted(keys) {
		t.Fatalf("evicted program left %v unsorted", keys)
	}
	if st := s.Stats(); st.Evictions != 2 || st.Resident != 1 {
		t.Fatalf("stats = %+v, want 2 evictions / 1 resident", st)
	}
}

// TestPlanStoreCoalescesCompiles: concurrent misses on one signature
// fold into a single compile.
func TestPlanStoreCoalescesCompiles(t *testing.T) {
	pl, plans := testPlans(t)
	s := NewPlanStore(2, nil)
	var compiles atomic.Int64
	inner := s.compile
	s.compile = func(p *Plan, e sort2d.Engine) (*schedule.Program, error) {
		compiles.Add(1)
		time.Sleep(2 * time.Millisecond) // widen the coalescing window
		return inner(p, e)
	}

	const readers = 16
	progs := make([]*schedule.Program, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prog, pin, err := s.Acquire(plans[0], pl.Engine())
			if err != nil {
				t.Error(err)
				return
			}
			pin.Release()
			progs[i] = prog
		}(i)
	}
	wg.Wait()
	if got := compiles.Load(); got != 1 {
		t.Fatalf("%d compiles for one signature, want 1 (coalesced)", got)
	}
	for i := 1; i < readers; i++ {
		if progs[i] != progs[0] {
			t.Fatal("coalesced readers disagree on the program")
		}
	}
}

// TestPlanStoreWarmAcquireZeroAllocs pins the hot-path guarantee: a
// warm Acquire + Release allocates nothing.
func TestPlanStoreWarmAcquireZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	pl, plans := testPlans(t)
	s := NewPlanStore(2, nil)
	acquire(t, s, plans[0], pl.Engine())

	allocs := testing.AllocsPerRun(200, func() {
		prog, pin, err := s.Acquire(plans[0], pl.Engine())
		if err != nil || prog == nil {
			t.Fatal("warm acquire failed")
		}
		pin.Release()
	})
	if allocs != 0 {
		t.Fatalf("warm Acquire allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPlanStoreCompileErrorNotCached: a failed compile leaves no
// residue — the next Acquire retries the compile.
func TestPlanStoreCompileErrorNotCached(t *testing.T) {
	pl, plans := testPlans(t)
	s := NewPlanStore(2, nil)
	inner := s.compile
	fail := true
	var mu sync.Mutex
	s.compile = func(p *Plan, e sort2d.Engine) (*schedule.Program, error) {
		mu.Lock()
		f := fail
		fail = false
		mu.Unlock()
		if f {
			return nil, errTestCompile
		}
		return inner(p, e)
	}
	if _, _, err := s.Acquire(plans[0], pl.Engine()); !errors.Is(err, errTestCompile) {
		t.Fatalf("first acquire error = %v, want errTestCompile", err)
	}
	if s.Len() != 0 {
		t.Fatal("failed compile left a resident entry")
	}
	acquire(t, s, plans[0], pl.Engine())
}

var errTestCompile = errors.New("test: compile failed")
