// PlanStore: an immutable snapshot map behind one atomic pointer.
//
// The paper's compile-once/replay-many split makes lookup, not
// compilation, the hot operation, and serving needs nothing more than
// a map from plan signature to compiled program. A hit is one atomic
// pointer load and one map read: no lock, no allocation, no clock
// read, and no write to a shared line beyond the hit counter and a
// coarse recency stamp — the hit counter doubles as the recency clock.
// A miss takes the one mutex: concurrent misses on a signature
// coalesce into a single compile, and the result is published as a
// copied map, evicting the least recently used entry at capacity.
// Programs are immutable once compiled, so an evicted program stays
// valid for any flush still replaying it and the GC frees it after the
// last one lets go.

package serve

import (
	"sync"
	"sync/atomic"

	"productsort/internal/obs"
	"productsort/internal/schedule"
	"productsort/internal/sort2d"
)

// recencyGrain is how many hits an entry's last-use stamp must lag
// before a hit rewrites it. Coarser = fewer shared-line writes on the
// hot path; finer = closer-to-true LRU. At 64 a hot entry rewrites its
// stamp on at most one hit in 64.
const recencyGrain = 64

// storeEntry is one resident program. Entries are shared between
// successive snapshots; only lastUse changes after publication.
type storeEntry struct {
	prog    *schedule.Program
	seq     int64        // publication order: the tie-break between equal stamps
	lastUse atomic.Int64 // the store's hit count when last stamped
}

// compileCall coalesces concurrent misses on one signature.
type compileCall struct {
	once sync.Once
	prog *schedule.Program
	err  error
}

// StoreStats is a point-in-time snapshot of a PlanStore's counters —
// the serving surface mirrors it at the root API.
type StoreStats struct {
	// Hits and Misses count lookups by outcome.
	Hits, Misses int64
	// Evictions counts programs displaced from the store.
	Evictions int64
	// Resident is the current entry count.
	Resident int
}

// PlanStore is a bounded cache of compiled phase programs keyed by
// schedule cache signature, with a lock-free read path. See the file
// comment for the protocol. The zero value is not usable; construct
// with NewPlanStore.
type PlanStore struct {
	snap     atomic.Pointer[map[string]*storeEntry] // immutable once published
	capacity int

	mu        sync.Mutex // serialises publication; guards inflight and published
	inflight  map[string]*compileCall
	published int64

	// compile builds a program for a plan — a seam the deterministic
	// tests replace; production uses Plan.compileProgram.
	compile func(*Plan, sort2d.Engine) (*schedule.Program, error)

	hits, misses, evictions *obs.Counter
}

// NewPlanStore returns a store holding at most capacity programs
// (minimum 1), reporting into m (a private registry when nil) under
// serve.planstore.*.
func NewPlanStore(capacity int, m *obs.Metrics) *PlanStore {
	if m == nil {
		m = obs.NewMetrics()
	}
	s := &PlanStore{
		capacity:  max(capacity, 1),
		inflight:  make(map[string]*compileCall),
		compile:   (*Plan).compileProgram,
		hits:      m.Counter("serve.planstore.hits"),
		misses:    m.Counter("serve.planstore.misses"),
		evictions: m.Counter("serve.planstore.evictions"),
	}
	empty := map[string]*storeEntry{}
	s.snap.Store(&empty)
	return s
}

// Pin is what Acquire hands back alongside the program. It holds
// nothing — the GC keeps an evicted program alive while any caller
// still references it. It exists for perfbench, the repository's
// benchmark, which calls Acquire and then Pin.Release. Release does
// nothing.
type Pin struct{}

// Release does nothing; see Pin.
func (Pin) Release() {}

// Acquire returns the compiled program for plan, compiling with
// engine on a miss. The hit path is lock-free and allocation-free.
func (s *PlanStore) Acquire(plan *Plan, engine sort2d.Engine) (*schedule.Program, Pin, error) {
	if e := (*s.snap.Load())[plan.sig]; e != nil {
		s.hits.Inc()
		// Refresh recency only when the stamp has aged past the grain,
		// so steady-state hits rarely write the entry's line.
		if now := s.hits.Value(); now-e.lastUse.Load() > recencyGrain {
			e.lastUse.Store(now)
		}
		return e.prog, Pin{}, nil
	}
	s.misses.Inc()
	prog, err := s.compileCoalesced(plan, engine)
	return prog, Pin{}, err
}

// compileCoalesced folds concurrent misses on one signature into a
// single compile and publishes the result on success. A failed compile
// is not cached: the next miss compiles again.
func (s *PlanStore) compileCoalesced(plan *Plan, engine sort2d.Engine) (*schedule.Program, error) {
	s.mu.Lock()
	// A racing miss may have published since this caller's lookup.
	if e := (*s.snap.Load())[plan.sig]; e != nil {
		s.mu.Unlock()
		return e.prog, nil
	}
	c, ok := s.inflight[plan.sig]
	if !ok {
		c = &compileCall{}
		s.inflight[plan.sig] = c
	}
	s.mu.Unlock()
	c.once.Do(func() {
		c.prog, c.err = s.compile(plan, engine)
		s.mu.Lock()
		if c.err == nil {
			s.publishLocked(plan.sig, c.prog)
		}
		delete(s.inflight, plan.sig)
		s.mu.Unlock()
	})
	return c.prog, c.err
}

// publishLocked stores a copy of the current map with key added,
// dropping the least recently used entry (the earliest published among
// equal stamps) when the store is at capacity. key is never already
// resident: only the compile that owns its in-flight slot publishes
// it. Caller holds mu.
func (s *PlanStore) publishLocked(key string, prog *schedule.Program) {
	old := *s.snap.Load()
	victim := ""
	if len(old) >= s.capacity {
		var v *storeEntry
		var oldest int64
		for k, e := range old {
			lu := e.lastUse.Load()
			if v == nil || lu < oldest || (lu == oldest && e.seq < v.seq) {
				victim, v, oldest = k, e, lu
			}
		}
		s.evictions.Inc()
	}
	next := make(map[string]*storeEntry, len(old)+1)
	for k, e := range old {
		if k != victim {
			next[k] = e
		}
	}
	s.published++
	e := &storeEntry{prog: prog, seq: s.published}
	e.lastUse.Store(s.hits.Value())
	next[key] = e
	s.snap.Store(&next)
}

// Len reports the resident entry count.
func (s *PlanStore) Len() int { return len(*s.snap.Load()) }

// Stats snapshots the store's counters.
func (s *PlanStore) Stats() StoreStats {
	return StoreStats{
		Hits:      s.hits.Value(),
		Misses:    s.misses.Value(),
		Evictions: s.evictions.Value(),
		Resident:  s.Len(),
	}
}
