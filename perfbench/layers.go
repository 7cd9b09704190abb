package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"productsort"
	"productsort/internal/graph"
	"productsort/internal/obs"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/serve"
	"productsort/internal/sort2d"
)

// maxSpanRequests bounds how many requests' spans a traced serving run
// keeps: every k-th traced request is kept, so the span file stays a
// few megabytes at any load. Stage metrics use every traced request.
const maxSpanRequests = 20000

// shape is one (plan, batch width) combination the kernel replayed.
type shape struct {
	plan  string
	width int
}

// serveLayers measures the serving layers from outside during traced
// windows: stage times from the generator's stamps and Reply.Wait,
// flush and store counters from Server.Metrics and StoreStats, Go
// runtime counters, and afterwards microbenchmarks of the planner,
// plan store and kernel on the shapes the traced traffic hit.
type serveLayers struct {
	engine  sort2d.Engine
	planner *serve.Planner
	byName  map[string]*serve.Plan
	tr      *tracer
	every   int // keep spans of every every-th traced request
	reqs    int64

	snap0  obs.Snapshot
	store0 productsort.ServerStoreStats
	mem0   runtime.MemStats

	flushes, batchSum, batchCount   int64
	hits, misses, evictions         int64
	allocBytes, gcCycles, gcPauseNs uint64
	ops                             int

	lag, submit, resident, delivery []float64
	realKeys, padSlots              int64
	family                          map[string]int
	shapes                          map[shape]int
	sizes                           []int
}

// replicaPlanner builds the planner productsort.NewServer builds for
// spec — productsort.DefaultServingNetworks (hypercubes up to the
// cover, then side-4 grids and tori no larger) plus the emitted
// families — so the benchmark can time the planner, the plan store and
// the kernel on the server's own plans.
func replicaPlanner(spec serveSpec) (*serve.Planner, sort2d.Engine, error) {
	engine, err := sort2d.ByName("auto")
	if err != nil {
		return nil, nil, err
	}
	var cands []serve.Candidate
	maxNodes := 0
	for r := 1; maxNodes < spec.maxKeys; r++ {
		net, err := product.New(graph.K2(), r)
		if err != nil {
			return nil, nil, err
		}
		cands = append(cands, serve.Candidate{Net: net})
		maxNodes = net.Nodes()
	}
	// As in DefaultServingNetworks, each grid/torus size is compared
	// with the last network added, so only the 16-node pair qualifies.
	last := maxNodes
	for r, side := 2, 16; side <= last; r, side = r+1, side*4 {
		for _, g := range []*graph.Graph{graph.Path(4), graph.Cycle(4)} {
			net, err := product.New(g, r)
			if err != nil {
				return nil, nil, err
			}
			cands = append(cands, serve.Candidate{Net: net})
			last = net.Nodes()
		}
	}
	fam, err := serve.FamilyCandidates(spec.families, maxNodes)
	if err != nil {
		return nil, nil, err
	}
	pl, err := serve.NewPlannerCandidates(append(cands, fam...), engine)
	return pl, engine, err
}

// newServeLayers builds the replica planner and checks that its plans
// are exactly the server's buckets.
func newServeLayers(spec serveSpec, srv *productsort.Server, tracedRequests int) (*serveLayers, error) {
	pl, engine, err := replicaPlanner(spec)
	if err != nil {
		return nil, err
	}
	l := &serveLayers{
		engine: engine, planner: pl, byName: map[string]*serve.Plan{},
		tr: newTracer(), every: max(1, (tracedRequests+maxSpanRequests-1)/maxSpanRequests),
		family: map[string]int{}, shapes: map[shape]int{},
	}
	var mine, theirs []string
	for _, p := range pl.Plans() {
		l.byName[p.Name()] = p
		mine = append(mine, p.Name())
	}
	for name := range srv.Metrics().Snapshot().Counters {
		if b, ok := bucketName(name, "flushes"); ok {
			theirs = append(theirs, b)
		}
	}
	sort.Strings(mine)
	sort.Strings(theirs)
	if !slices.Equal(mine, theirs) {
		return nil, fmt.Errorf("replica planner %v differs from the server's buckets %v", mine, theirs)
	}
	return l, nil
}

// begin snapshots the counters a traced window is measured against.
func (l *serveLayers) begin(srv *productsort.Server) {
	l.snap0 = srv.Metrics().Snapshot()
	l.store0 = srv.StoreStats()
	runtime.ReadMemStats(&l.mem0)
}

// end folds one traced window into the layer tallies and records its
// spans. It runs after the window, outside the timed region.
func (l *serveLayers) end(srv *productsort.Server, win window, outs []outcome, start time.Time) error {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	snap, st := srv.Metrics().Snapshot(), srv.StoreStats()
	l.allocBytes += mem.TotalAlloc - l.mem0.TotalAlloc
	l.gcCycles += uint64(mem.NumGC - l.mem0.NumGC)
	l.gcPauseNs += mem.PauseTotalNs - l.mem0.PauseTotalNs
	l.ops += len(outs)
	for name, v := range snap.Counters {
		if _, ok := bucketName(name, "flushes"); ok {
			l.flushes += v - l.snap0.Counters[name]
		}
	}
	for name, h := range snap.Histograms {
		if _, ok := bucketName(name, "batchsize"); ok {
			l.batchSum += h.Sum - l.snap0.Histograms[name].Sum
			l.batchCount += h.Count - l.snap0.Histograms[name].Count
		}
	}
	l.hits += st.Hits - l.store0.Hits
	l.misses += st.Misses - l.store0.Misses
	l.evictions += st.Evictions - l.store0.Evictions

	base := l.tr.since(start)
	for i, o := range outs {
		r := win.reqs[i]
		if o.err != nil || o.rep.Err != nil {
			continue
		}
		lag, sub, res, del := serveStages(r.due, o.send, o.submitted, o.recv, o.rep.Wait)
		if lag+sub+res+del != o.recv-r.due {
			return fmt.Errorf("serve stages of request %d do not add up to its latency", i)
		}
		l.lag = append(l.lag, ms(lag))
		l.submit = append(l.submit, us(sub))
		l.resident = append(l.resident, ms(res))
		l.delivery = append(l.delivery, us(del))
		plan, ok := l.byName[o.rep.Network]
		if !ok {
			return fmt.Errorf("reply names unknown plan %q", o.rep.Network)
		}
		l.realKeys += int64(r.n)
		l.padSlots += int64(plan.Nodes())
		l.family[o.rep.Family]++
		l.shapes[shape{plan.Name(), o.rep.BatchSize}]++
		l.sizes = append(l.sizes, r.n)

		id := l.reqs
		l.reqs++
		if id%int64(l.every) != 0 {
			continue
		}
		root := l.tr.add("serve.request", -1, id, base+r.due, base+o.recv)
		t := base + r.due
		for _, s := range []struct {
			name string
			d    time.Duration
		}{{"driver.lag", lag}, {"serve.submit", sub}, {"serve.resident", res}, {"serve.delivery", del}} {
			l.tr.add(s.name, root, id, t, t+s.d)
			t += s.d
		}
	}
	return nil
}

// finish runs the microbenchmarks and fills rep with every per-layer
// metric.
func (l *serveLayers) finish(rep *report, seed int64, pool []productsort.Key, plain, traced *serveTally) error {
	if len(l.sizes) == 0 {
		return fmt.Errorf("no traced request succeeded")
	}
	v := rep.values
	for _, d := range perLayer {
		v[d.name] = 0 // the stream's layers are unused
	}
	sorted := func(xs []float64) []float64 { s := slices.Clone(xs); slices.Sort(s); return s }
	lag := sorted(l.lag)
	v["driver.lag_p99_ms"] = percentile(lag, 99)
	v["driver.lag_max_ms"] = lag[len(lag)-1]
	v["serve.submit_us_p50"] = percentile(sorted(l.submit), 50)
	res := sorted(l.resident)
	v["serve.resident_ms_p50"] = percentile(res, 50)
	v["serve.resident_ms_p99"] = percentile(res, 99)
	v["serve.delivery_us_p50"] = percentile(sorted(l.delivery), 50)
	v["serve.batch_mean"] = float64(l.batchSum) / float64(max(l.batchCount, 1))
	v["serve.flushes"] = float64(l.flushes)
	v["serve.pad_ratio"] = float64(l.realKeys) / float64(l.padSlots)
	for _, f := range []string{productsort.FamilyProduct, productsort.FamilyMultiway, productsort.FamilyPeriodic} {
		v["serve.planner.family_share."+f] = float64(l.family[f]) / float64(len(l.sizes))
	}
	v["serve.store.hit_ratio"] = float64(l.hits) / float64(max(l.hits+l.misses, 1))
	v["serve.store.evictions"] = float64(l.evictions)
	v["go.alloc_bytes_per_op"] = float64(l.allocBytes) / float64(l.ops)
	v["go.gc_cycles"] = float64(l.gcCycles)
	v["go.gc_pause_ms"] = float64(l.gcPauseNs) / 1e6
	v["trace.overhead_pct"] = 100 * (median(traced.p50)/median(plain.p50) - 1)

	sizes := l.sizes
	v["serve.planner.for_ns"] = nsPerOp(func(n int) {
		for i := range n {
			if _, err := l.planner.For(sizes[i%len(sizes)]); err != nil {
				panic(err)
			}
		}
	})

	// Cold compile of every plan the planner can choose: what set-up
	// pays once per server.
	store := serve.NewPlanStore(64, nil)
	var compile time.Duration
	chosen := map[*serve.Plan]bool{}
	for n := 1; n <= l.planner.MaxKeys(); n++ {
		p, err := l.planner.For(n)
		if err != nil {
			return err
		}
		if chosen[p] {
			continue
		}
		chosen[p] = true
		t0 := time.Now()
		_, pin, err := store.Acquire(p, l.engine)
		compile += time.Since(t0)
		if err != nil {
			return err
		}
		pin.Release()
	}
	v["schedule.compile_ms"] = ms(compile)

	var hit []*serve.Plan
	for s := range l.shapes {
		if p := l.byName[s.plan]; !slices.Contains(hit, p) {
			hit = append(hit, p)
		}
	}
	sort.Slice(hit, func(i, j int) bool { return hit[i].Name() < hit[j].Name() })
	v["serve.store.acquire_ns"] = nsPerOp(func(n int) {
		for i := range n {
			_, pin, err := store.Acquire(hit[i%len(hit)], l.engine)
			if err != nil {
				panic(err)
			}
			pin.Release()
		}
	})

	var weighted, weight float64
	for s, reqs := range l.shapes {
		prog, pin, err := store.Acquire(l.byName[s.plan], l.engine)
		if err != nil {
			return err
		}
		weighted += float64(reqs) * kernelNsPerSet(prog, s.width, pool)
		weight += float64(reqs)
		pin.Release()
	}
	v["schedule.cols_ns_per_set"] = weighted / weight

	k2_10, err := k2_10Program(l.engine)
	if err != nil {
		return err
	}
	v["schedule.cols_ns_per_set.k2_10"] = kernelNsPerSet(k2_10, streamRunBatch, pool)
	v["ref.slices_sort_keys_per_s"] = slicesSortKeysPerSec(streamInput(seed))
	rep.spans = l.tr
	rep.details["traced_requests"] = len(l.sizes)
	rep.details["span_every"] = l.every
	rep.details["kernel_shapes"] = len(l.shapes)
	return nil
}

// nsPerOp times fn(n) — n repetitions of one operation — and returns
// the median time per operation over five trials, with n grown until a
// trial takes at least a millisecond.
func nsPerOp(fn func(n int)) float64 {
	const minTrial = time.Millisecond
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if time.Since(t0) >= minTrial {
			break
		}
		n *= 2
	}
	trials := make([]float64, 5)
	for i := range trials {
		t0 := time.Now()
		fn(n)
		trials[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(trials)
}

// kernelNsPerSet times RunBatchColumnar with one worker on width full
// key sets of prog's size, per set. The replay is data-independent, so
// repeating it on its own sorted output costs the same.
func kernelNsPerSet(prog *schedule.Program, width int, pool []productsort.Key) float64 {
	nodes := prog.Nodes()
	batch := make([][]productsort.Key, width)
	for i := range batch {
		off := (i * nodes) % (len(pool) - nodes)
		batch[i] = slices.Clone(pool[off : off+nodes])
	}
	buf := schedule.NewColumnBuffer()
	return nsPerOp(func(n int) {
		for range n {
			if err := schedule.RunBatchColumnar(prog, batch, 1, buf); err != nil {
				panic(err)
			}
		}
	}) / float64(width)
}

// k2_10Program returns the stream workload's compiled program (cached
// process-wide, as productsort.Compile caches it).
func k2_10Program(engine sort2d.Engine) (*schedule.Program, error) {
	net, err := product.New(graph.K2(), streamDims)
	if err != nil {
		return nil, err
	}
	return schedule.Compile(net, engine)
}

// slicesSortKeysPerSec is the stdlib reference: slices.Sort on copies
// of keys, median keys per second over three trials.
func slicesSortKeysPerSec(keys []productsort.Key) float64 {
	buf := make([]productsort.Key, len(keys))
	rates := make([]float64, 3)
	for i := range rates {
		copy(buf, keys)
		t0 := time.Now()
		slices.Sort(buf)
		rates[i] = float64(len(keys)) / time.Since(t0).Seconds()
	}
	return median(rates)
}
