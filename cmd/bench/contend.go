// The -contend mode: GOMAXPROCS sweep of plan-store contention.
//
// One op is a warm serving step: resolve the compiled program for a
// plan (rotating across three small topologies) and replay one key set
// through it columnar — lookup plus sort, the steady-state serve path
// with batching factored out. The sweep runs the op loop on 1, 4 and
// all cores against both stores: a mutex LRU (planCache, below — the
// bench's private baseline) and the serving layer's lock-free snapshot
// store (serve.PlanStore).
// BENCH_contend.json records ns/op and sorts/s per (store, cores)
// cell; the lock-plateau regression gate (-mingain, enforced by CI's
// contend job) fails the run when the new store's all-core throughput
// is below mingain × its own single-core figure — the signature of a
// serialising lock creeping back into the read path.

package main

import (
	"container/list"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"productsort/internal/graph"
	"productsort/internal/obs"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/serve"
	"productsort/internal/simnet"
	"productsort/internal/sort2d"
)

// contendCell is one (store, cores) measurement.
type contendCell struct {
	Store       string  `json:"store"`
	Procs       int     `json:"procs"`
	Ops         int64   `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	SortsPerSec float64 `json:"sorts_per_sec"`
	Elapsed     string  `json:"elapsed"`
}

// contendGate is the lock-plateau regression verdict.
type contendGate struct {
	// MinGain is the required all-core / single-core throughput ratio
	// for the lock-free store; 0 disables the gate.
	MinGain float64 `json:"min_gain"`
	// Enforced is false when the host cannot express the sweep (fewer
	// CPUs than the largest swept proc count) or MinGain is 0.
	Enforced   bool    `json:"enforced"`
	SkipReason string  `json:"skip_reason,omitempty"`
	Gain       float64 `json:"gain"`
	OldGain    float64 `json:"old_gain"`
	Pass       bool    `json:"pass"`
}

// contendReport is the BENCH_contend.json schema.
type contendReport struct {
	Host        benchHost     `json:"host"`
	NumCPU      int           `json:"num_cpu"`
	Procs       []int         `json:"procs"`
	DurationPer string        `json:"duration_per_cell"`
	Plans       []string      `json:"plans"`
	Cells       []contendCell `json:"cells"`
	Gate        contendGate   `json:"gate"`
}

// planResolver abstracts the two stores under test: resolve the
// program for a plan. Neither needs a release after use.
type planResolver struct {
	name    string
	resolve func(p *serve.Plan) (*schedule.Program, error)
}

// contendPlans builds the rotating working set: three small distinct
// topologies, so lookups exercise key dispatch (and, for the sharded
// store, multiple slots) while the per-op sort stays cheap enough for
// the lookup path to matter.
func contendPlans() (*serve.Planner, []*serve.Plan, error) {
	pl, err := serve.NewPlanner([]*product.Network{
		product.MustNew(graph.K2(), 2),    // 4 nodes
		product.MustNew(graph.Path(3), 2), // 9 nodes
		product.MustNew(graph.K2(), 3),    // 8 nodes
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	return pl, pl.Plans(), nil
}

// splitmix64 advances x and returns the next pseudo-random value — the
// allocation-free key refill used by every worker.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// contendWorker loops the warm serving op until stop closes: resolve
// the next plan's program, refill the private key set and replay it.
// Returns the op count.
func contendWorker(r *planResolver, plans []*serve.Plan, seed uint64, stop <-chan struct{}) (int64, error) {
	buf := schedule.NewColumnBuffer()
	// Per-plan private key sets, widest first so one slab serves all.
	sets := make([][][]simnet.Key, len(plans))
	for i, p := range plans {
		sets[i] = [][]simnet.Key{make([]simnet.Key, p.Nodes())}
	}
	var ops int64
	for {
		select {
		case <-stop:
			return ops, nil
		default:
		}
		p := plans[int(ops)%len(plans)]
		prog, err := r.resolve(p)
		if err != nil {
			return ops, err
		}
		keys := sets[int(ops)%len(plans)][0]
		for j := range keys {
			keys[j] = simnet.Key(splitmix64(&seed) >> 1)
		}
		if err := schedule.RunBatchColumnar(prog, sets[int(ops)%len(plans)], 1, buf); err != nil {
			return ops, err
		}
		ops++
	}
}

// contendCellRun measures one (store, procs) cell: procs workers on
// GOMAXPROCS(procs) for roughly dur.
func contendCellRun(r *planResolver, plans []*serve.Plan, procs int, dur time.Duration) (contendCell, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	stop := make(chan struct{})
	counts := make([]int64, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			counts[w], errs[w] = contendWorker(r, plans, uint64(w)*0x9e3779b9+1, stop)
		}(w)
	}
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	var ops int64
	for w := 0; w < procs; w++ {
		if errs[w] != nil {
			return contendCell{}, errs[w]
		}
		ops += counts[w]
	}
	cell := contendCell{
		Store:   r.name,
		Procs:   procs,
		Ops:     ops,
		Elapsed: elapsed.Round(time.Millisecond).String(),
	}
	if ops > 0 {
		cell.NsPerOp = float64(elapsed.Nanoseconds()) / float64(ops)
		cell.SortsPerSec = float64(ops) / elapsed.Seconds()
	}
	return cell, nil
}

// parseProcs splits a comma-separated proc list; 0 means NumCPU. The
// result is deduplicated and ascending.
func parseProcs(s string) ([]int, error) {
	seen := map[int]bool{}
	var procs []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bench: bad proc count %q", part)
		}
		if v == 0 {
			v = runtime.NumCPU()
		}
		if !seen[v] {
			seen[v] = true
			procs = append(procs, v)
		}
	}
	if len(procs) == 0 {
		return nil, fmt.Errorf("bench: no proc counts")
	}
	sort.Ints(procs)
	return procs, nil
}

// throughputFor returns a store's sorts/s at the given proc count.
func throughputFor(cells []contendCell, store string, procs int) float64 {
	for _, c := range cells {
		if c.Store == store && c.Procs == procs {
			return c.SortsPerSec
		}
	}
	return 0
}

// runContendBench drives the contention sweep and writes the artifact.
// mingain > 0 turns on the lock-plateau gate: the run fails unless the
// lock-free store's throughput at the largest swept proc count is at
// least mingain × its single-proc figure. The gate needs procs=1 in
// the sweep and at least max-swept-procs CPUs on the host; otherwise
// it records why it was skipped and passes.
func runContendBench(outPath, procsCSV string, dur time.Duration, mingain float64) error {
	procs, err := parseProcs(procsCSV)
	if err != nil {
		return err
	}
	pl, plans, err := contendPlans()
	if err != nil {
		return err
	}
	names := make([]string, len(plans))
	for i, p := range plans {
		names[i] = p.Name()
	}

	// The two stores under test, rebuilt per cell so every cell starts
	// cold-then-warm identically. Capacity covers the working set:
	// this sweep measures lookup contention, not eviction churn.
	newResolver := func(store string) *planResolver {
		switch store {
		case "mutex-lru":
			c := newPlanCache(len(plans)+1, obs.NewMetrics())
			return &planResolver{name: store, resolve: func(p *serve.Plan) (*schedule.Program, error) {
				return c.Get(p, pl.Engine())
			}}
		default: // lock-free
			s := serve.NewPlanStore(len(plans)+1, obs.NewMetrics())
			return &planResolver{name: store, resolve: func(p *serve.Plan) (*schedule.Program, error) {
				prog, _, err := s.Acquire(p, pl.Engine())
				return prog, err
			}}
		}
	}

	rep := contendReport{
		Host:        hostInfo(),
		NumCPU:      runtime.NumCPU(),
		Procs:       procs,
		DurationPer: dur.String(),
		Plans:       names,
	}
	fmt.Printf("plan-store contention sweep: procs %v, %v per cell, %d CPUs\n\n", procs, dur, rep.NumCPU)
	fmt.Printf("%-12s %6s %12s %12s %14s\n", "store", "procs", "ops", "ns/op", "sorts/s")
	for _, store := range []string{"mutex-lru", "lock-free"} {
		for _, p := range procs {
			r := newResolver(store)
			cell, err := contendCellRun(r, plans, p, dur)
			if err != nil {
				return err
			}
			rep.Cells = append(rep.Cells, cell)
			fmt.Printf("%-12s %6d %12d %12.0f %14.0f\n", cell.Store, cell.Procs, cell.Ops, cell.NsPerOp, cell.SortsPerSec)
		}
	}

	maxProcs := procs[len(procs)-1]
	gate := contendGate{MinGain: mingain}
	base := throughputFor(rep.Cells, "lock-free", 1)
	peak := throughputFor(rep.Cells, "lock-free", maxProcs)
	oldBase := throughputFor(rep.Cells, "mutex-lru", 1)
	oldPeak := throughputFor(rep.Cells, "mutex-lru", maxProcs)
	if base > 0 {
		gate.Gain = peak / base
	}
	if oldBase > 0 {
		gate.OldGain = oldPeak / oldBase
	}
	switch {
	case mingain <= 0:
		gate.SkipReason = "gate disabled (-mingain 0)"
		gate.Pass = true
	case maxProcs <= 1:
		gate.SkipReason = "sweep has no multi-proc cell"
		gate.Pass = true
	case rep.NumCPU < maxProcs:
		gate.SkipReason = fmt.Sprintf("host has %d CPUs < %d swept procs", rep.NumCPU, maxProcs)
		gate.Pass = true
	default:
		gate.Enforced = true
		gate.Pass = gate.Gain >= mingain
	}
	rep.Gate = gate

	if err := writeJSONArtifact(outPath, rep); err != nil {
		return err
	}
	fmt.Printf("\nlock-free gain %.2fx (mutex %.2fx) at %d procs; artifact: %s\n", gate.Gain, gate.OldGain, maxProcs, outPath)
	if gate.Enforced && !gate.Pass {
		fmt.Fprintf(os.Stderr, "bench: contention gate FAILED: lock-free store gained %.2fx at %d procs, need >= %.2fx\n",
			gate.Gain, maxProcs, mingain)
		return fmt.Errorf("bench: lock-plateau regression (gain %.2f < %.2f)", gate.Gain, mingain)
	}
	if gate.SkipReason != "" {
		fmt.Printf("gate skipped: %s\n", gate.SkipReason)
	}
	return nil
}

// planCache is the mutex baseline the sweep measures the plan store
// against: a bounded LRU of compiled programs behind one mutex, keyed
// by plan name, that serialises every lookup — hit or miss.
type planCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	byKey map[string]*list.Element // plan name -> element holding *cacheSlot

	hits, misses, evictions *obs.Counter
}

// cacheSlot is a once-guarded cache entry: concurrent misses on one
// plan coalesce into a single compilation, and residency is decided
// before the (possibly slow) build runs so the cache lock is never
// held across a compile.
type cacheSlot struct {
	key  string
	once sync.Once
	prog *schedule.Program
	err  error
}

// newPlanCache returns an LRU holding at most capacity programs
// (minimum 1), counting into m under bench.plancache.*.
func newPlanCache(capacity int, m *obs.Metrics) *planCache {
	return &planCache{
		cap:       max(capacity, 1),
		ll:        list.New(),
		byKey:     make(map[string]*list.Element),
		hits:      m.Counter("bench.plancache.hits"),
		misses:    m.Counter("bench.plancache.misses"),
		evictions: m.Counter("bench.plancache.evictions"),
	}
}

// Len reports the resident entry count.
func (c *planCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Get returns the compiled program for plan, compiling with engine on a
// miss. A miss inserts the slot at the front and evicts from the back
// beyond capacity; the compile itself runs outside the cache lock, and
// a failed compile gives up its residency so a later Get can retry.
func (c *planCache) Get(plan *serve.Plan, engine sort2d.Engine) (*schedule.Program, error) {
	key := plan.Name()
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		slot := el.Value.(*cacheSlot)
		c.mu.Unlock()
		slot.once.Do(func() { slot.prog, slot.err = schedule.CompileUncached(plan.Net, engine) })
		return slot.prog, slot.err
	}
	c.misses.Inc()
	slot := &cacheSlot{key: key}
	c.byKey[key] = c.ll.PushFront(slot)
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.byKey, back.Value.(*cacheSlot).key)
		c.evictions.Inc()
	}
	c.mu.Unlock()
	slot.once.Do(func() { slot.prog, slot.err = schedule.CompileUncached(plan.Net, engine) })
	if slot.err != nil {
		c.mu.Lock()
		if el, ok := c.byKey[key]; ok && el.Value.(*cacheSlot) == slot {
			c.ll.Remove(el)
			delete(c.byKey, key)
		}
		c.mu.Unlock()
	}
	return slot.prog, slot.err
}
