package main

import (
	"fmt"
	"runtime"
	"time"

	"productsort"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/serve"
	"productsort/internal/sort2d"
	"productsort/internal/workload"
)

// scheduleEntry is one topology's cold-vs-warm measurement.
type scheduleEntry struct {
	Network string `json:"network"`
	Family  string `json:"family"`
	Nodes   int    `json:"nodes"`
	Rounds  int    `json:"rounds"`
	// ColdNs is the wall-clock of compile + one sort with an empty cache
	// (the pre-refactor per-sort cost; best of 3).
	ColdNs int64 `json:"coldNs"`
	// WarmPerSetNs is the wall-clock per key set when Sets sets are
	// replayed through the cached program by the worker pool.
	WarmPerSetNs int64 `json:"warmPerSetNs"`
	// Speedup is ColdNs / WarmPerSetNs.
	Speedup float64 `json:"speedup"`
	// RowsPerSetNs and ColsPerSetNs are the single-worker rows-vs-
	// columns head-to-head: the same full-size batch replayed through
	// a row-at-a-time loop over ExecBackend.Run (each set transposed
	// into node order and back) and the columnar kernel
	// (RunBatchColumnar), best of 3, per set.
	RowsPerSetNs int64 `json:"rowsPerSetNs"`
	ColsPerSetNs int64 `json:"colsPerSetNs"`
	// ColSpeedup is RowsPerSetNs / ColsPerSetNs — the factor the
	// struct-of-arrays transform buys on this topology.
	ColSpeedup float64 `json:"colSpeedup"`
}

// familyEntry is one cell of the cross-family head-to-head: the same
// request size served by the product, multiway and periodic
// constructions, measured on the axes the serve planner and the CI
// gate care about.
type familyEntry struct {
	Family      string `json:"family"`
	Network     string `json:"network"`
	Nodes       int    `json:"nodes"`
	Rounds      int    `json:"rounds"`
	Comparators int    `json:"comparators"`
	// CertMode and CertifiedMs record the certification run (exhaustive
	// proof inside the envelope, seeded sample above it) and its wall
	// time.
	CertMode    string  `json:"certMode"`
	CertifiedMs float64 `json:"certifiedMs"`
	// ColsPerSetNs is the columnar batch kernel's per-set replay time —
	// the emitted families run through the exact same kernel as the
	// product programs.
	ColsPerSetNs int64 `json:"colsPerSetNs"`
}

// plannerPick records which family the cross-family serve planner
// selects for one request size.
type plannerPick struct {
	RequestKeys int    `json:"requestKeys"`
	Family      string `json:"family"`
	Network     string `json:"network"`
	Rounds      int    `json:"rounds"`
}

// scheduleReport is the BENCH_schedule.json document.
type scheduleReport struct {
	Generated string          `json:"generated"`
	Sets      int             `json:"sets"`
	Workers   int             `json:"workers"`
	Entries   []scheduleEntry `json:"entries"`
	// Families is the product-vs-multiway-vs-periodic head-to-head at a
	// spread of power-of-two sizes.
	Families []familyEntry `json:"families"`
	// PlannerSelections shows which family a mixed-candidate serve
	// planner picks per request size; the bench fails unless at least
	// one non-product family wins somewhere.
	PlannerSelections []plannerPick `json:"plannerSelections"`
	// Compiles confirms the batch phase performed zero schedule
	// constructions beyond the cold ones.
	Compiles int64 `json:"compiles"`
}

// runScheduleBench contrasts cold compile+sort against warm batch
// replay on a spread of topologies and writes the report to path.
func runScheduleBench(path string, sets, workers int) error {
	if sets < 1 {
		return fmt.Errorf("schedule bench: -sets %d < 1", sets)
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Each topology pairs the root network (for the public-API cold/warm
	// measurement) with its factor graph + dimension (so the kernel
	// head-to-head can reach the internal compiled program directly).
	type topo struct {
		nw     *productsort.Network
		factor *graph.Graph
		r      int
	}
	nets := []topo{}
	for _, build := range []struct {
		root   func() (*productsort.Network, error)
		factor func() *graph.Graph
		r      int
	}{
		{func() (*productsort.Network, error) { return productsort.Grid(8, 2) }, func() *graph.Graph { return graph.Path(8) }, 2},
		{func() (*productsort.Network, error) { return productsort.Grid(8, 3) }, func() *graph.Graph { return graph.Path(8) }, 3},
		{func() (*productsort.Network, error) { return productsort.Hypercube(9) }, func() *graph.Graph { return graph.K2() }, 9},
		{func() (*productsort.Network, error) { return productsort.PetersenCube(2) }, func() *graph.Graph { return graph.Petersen() }, 2},
		{func() (*productsort.Network, error) { return productsort.MeshConnectedTrees(3, 2) }, func() *graph.Graph { return graph.CompleteBinaryTree(3) }, 2},
	} {
		nw, err := build.root()
		if err != nil {
			return err
		}
		nets = append(nets, topo{nw: nw, factor: build.factor(), r: build.r})
	}
	gen, err := workload.ByName("uniform")
	if err != nil {
		return err
	}

	report := scheduleReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Sets:      sets,
		Workers:   workers,
	}
	for _, tp := range nets {
		nw := tp.nw
		// Cold: empty cache, compile + one sort. Best of 3 to shed
		// scheduler noise.
		var cold time.Duration
		for rep := 0; rep < 3; rep++ {
			schedule.ResetCache()
			keys := gen(nw.Nodes(), int64(rep))
			start := time.Now()
			c, err := productsort.Compile(nw)
			if err != nil {
				return err
			}
			if _, err := c.Sort(keys); err != nil {
				return err
			}
			if d := time.Since(start); rep == 0 || d < cold {
				cold = d
			}
		}

		// Warm: M sets through the cached program across the pool.
		c, err := productsort.Compile(nw)
		if err != nil {
			return err
		}
		before := schedule.Stats().Compiles
		batch := make([][]productsort.Key, sets)
		for i := range batch {
			batch[i] = gen(nw.Nodes(), int64(i)+100)
		}
		start := time.Now()
		if err := c.SortBatch(batch, workers); err != nil {
			return err
		}
		warm := time.Since(start)
		if got := schedule.Stats().Compiles; got != before {
			return fmt.Errorf("schedule bench: batch recompiled (%d -> %d constructions)", before, got)
		}
		for i, set := range batch {
			if !productsort.IsSorted(set) {
				return fmt.Errorf("schedule bench: %s batch set %d not sorted", nw.Name(), i)
			}
		}

		perSet := warm.Nanoseconds() / int64(sets)
		e := scheduleEntry{
			Network:      nw.Name(),
			Family:       productsort.FamilyProduct,
			Nodes:        nw.Nodes(),
			Rounds:       c.Rounds(),
			ColdNs:       cold.Nanoseconds(),
			WarmPerSetNs: perSet,
		}
		if perSet > 0 {
			e.Speedup = float64(e.ColdNs) / float64(perSet)
		}
		rowsNs, colsNs, err := rowsVsColumns(tp.factor, tp.r, sets, gen)
		if err != nil {
			return err
		}
		e.RowsPerSetNs, e.ColsPerSetNs = rowsNs, colsNs
		if e.ColsPerSetNs > 0 {
			e.ColSpeedup = float64(e.RowsPerSetNs) / float64(e.ColsPerSetNs)
		}
		report.Entries = append(report.Entries, e)
		fmt.Printf("%-22s nodes=%-5d cold=%-12v warm/set=%-12v speedup=%-8.1fx rows/set=%-10v cols/set=%-10v cols-speedup=%.1fx\n",
			nw.Name(), nw.Nodes(), cold.Round(time.Microsecond),
			time.Duration(perSet).Round(time.Microsecond), e.Speedup,
			time.Duration(e.RowsPerSetNs), time.Duration(e.ColsPerSetNs), e.ColSpeedup)
	}
	report.Compiles = schedule.Stats().Compiles

	fams, err := familyHeadToHead(sets, gen)
	if err != nil {
		return err
	}
	report.Families = fams
	picks, err := plannerSelections()
	if err != nil {
		return err
	}
	report.PlannerSelections = picks

	if err := writeJSONArtifact(path, report); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d sets, %d workers)\n", path, sets, workers)
	return nil
}

// familyHeadToHead races the three constructions at the same sizes:
// rounds and comparator counts from the compiled programs, certified
// wall time from the bitsliced prover, and per-set columnar replay time
// through the shared batch kernel.
func familyHeadToHead(sets int, gen workload.Gen) ([]familyEntry, error) {
	families := []string{productsort.FamilyProduct, productsort.FamilyMultiway, productsort.FamilyPeriodic}
	var out []familyEntry
	for _, size := range []int{16, 64} {
		for _, family := range families {
			c, err := productsort.CompileFamily(family, size)
			if err != nil {
				return nil, fmt.Errorf("family head-to-head: %s[%d]: %w", family, size, err)
			}
			crt, err := c.Certify(&productsort.CertifyOptions{Seed: 1})
			if err != nil {
				return nil, err
			}
			if !crt.Certified {
				return nil, fmt.Errorf("family head-to-head: %s[%d] failed certification: %+v",
					family, size, crt.Witness)
			}
			mode := "sampled"
			if crt.Exhaustive {
				mode = "exhaustive"
			}

			batch := make([][]productsort.Key, sets)
			for i := range batch {
				batch[i] = gen(size, int64(i)+300)
			}
			var cols time.Duration
			for rep := 0; rep < 3; rep++ {
				for i := range batch {
					copy(batch[i], gen(size, int64(i)+300))
				}
				start := time.Now()
				if err := c.SortBatch(batch, 1); err != nil {
					return nil, err
				}
				if d := time.Since(start); rep == 0 || d < cols {
					cols = d
				}
			}
			for i, set := range batch {
				if !productsort.IsSorted(set) {
					return nil, fmt.Errorf("family head-to-head: %s[%d] set %d not sorted", family, size, i)
				}
			}

			name := c.Network().Name()
			switch family {
			case productsort.FamilyMultiway:
				name = fmt.Sprintf("multiway%d[%d]", productsort.MultiwaySorterWidth, size)
			case productsort.FamilyPeriodic:
				name = fmt.Sprintf("periodic[%d]", size)
			}
			e := familyEntry{
				Family:       family,
				Network:      name,
				Nodes:        size,
				Rounds:       c.Rounds(),
				Comparators:  c.Size(),
				CertMode:     mode,
				CertifiedMs:  float64(crt.Elapsed) / float64(time.Millisecond),
				ColsPerSetNs: cols.Nanoseconds() / int64(sets),
			}
			out = append(out, e)
			fmt.Printf("family %-9s n=%-4d net=%-14s rounds=%-4d comparators=%-6d cert=%-10s %-8.1fms cols/set=%v\n",
				family, size, e.Network, e.Rounds, e.Comparators, mode, e.CertifiedMs,
				time.Duration(e.ColsPerSetNs))
		}
	}
	return out, nil
}

// plannerSelections builds the mixed-family serve planner (hypercubes
// plus both emitted families up to 64 keys) and records its pick per
// request size. At least one non-product selection is required — the
// cross-family planner existing is only worth shipping if it ever
// disagrees with the product-only one.
func plannerSelections() ([]plannerPick, error) {
	var cands []serve.Candidate
	for r := 1; r <= 6; r++ {
		cands = append(cands, serve.Candidate{Net: product.MustNew(graph.K2(), r)})
	}
	fam, err := serve.FamilyCandidates(
		[]string{productsort.FamilyMultiway, productsort.FamilyPeriodic}, 64)
	if err != nil {
		return nil, err
	}
	engine, err := sort2d.ByName("auto")
	if err != nil {
		return nil, err
	}
	pl, err := serve.NewPlannerCandidates(append(cands, fam...), engine)
	if err != nil {
		return nil, err
	}
	var picks []plannerPick
	nonProduct := 0
	for _, n := range []int{2, 4, 8, 16, 24, 32, 64} {
		plan, err := pl.For(n)
		if err != nil {
			return nil, err
		}
		if plan.Family != productsort.FamilyProduct {
			nonProduct++
		}
		picks = append(picks, plannerPick{
			RequestKeys: n, Family: plan.Family, Network: plan.Name(), Rounds: plan.Rounds,
		})
		fmt.Printf("planner n=%-4d -> %-9s %-14s rounds=%d\n", n, plan.Family, plan.Name(), plan.Rounds)
	}
	if nonProduct == 0 {
		return nil, fmt.Errorf("planner selections: no request size picked a non-product family")
	}
	return picks, nil
}

// rowsVsColumns times the same full-size batch through a row-at-a-time
// ExecBackend.Run loop and the columnar kernel (RunBatchColumnar),
// single worker so the numbers compare kernels and not scheduling.
// Best of 3 runs each, per-set nanoseconds.
func rowsVsColumns(factor *graph.Graph, r, sets int, gen workload.Gen) (rowsNs, colsNs int64, err error) {
	net := product.MustNew(factor, r)
	prog, err := schedule.Compile(net, nil)
	if err != nil {
		return 0, 0, err
	}
	nodes := net.Nodes()
	pristine := make([][]productsort.Key, sets)
	for i := range pristine {
		pristine[i] = gen(nodes, int64(i)+200)
	}
	batch := make([][]productsort.Key, sets)
	for i := range batch {
		batch[i] = make([]productsort.Key, nodes)
	}
	reload := func() {
		for i := range batch {
			copy(batch[i], pristine[i])
		}
	}

	// The row path: each set goes into node order, through one
	// ExecBackend.Run, and back out in snake order.
	perm := prog.SnakePerm()
	scratch := make([]productsort.Key, nodes)
	runRows := func() error {
		for _, keys := range batch {
			for pos, k := range keys {
				scratch[perm[pos]] = k
			}
			if _, err := (schedule.ExecBackend{}).Run(prog, scratch); err != nil {
				return err
			}
			for pos := range keys {
				keys[pos] = scratch[perm[pos]]
			}
		}
		return nil
	}
	colBuf := schedule.NewColumnBuffer()
	// Warm both paths so the timed runs see the steady-state path.
	reload()
	if err := runRows(); err != nil {
		return 0, 0, err
	}
	reload()
	if err := schedule.RunBatchColumnar(prog, batch, 1, colBuf); err != nil {
		return 0, 0, err
	}

	var rows, cols time.Duration
	for rep := 0; rep < 3; rep++ {
		reload()
		start := time.Now()
		if err := runRows(); err != nil {
			return 0, 0, err
		}
		if d := time.Since(start); rep == 0 || d < rows {
			rows = d
		}

		reload()
		start = time.Now()
		if err := schedule.RunBatchColumnar(prog, batch, 1, colBuf); err != nil {
			return 0, 0, err
		}
		if d := time.Since(start); rep == 0 || d < cols {
			cols = d
		}
	}
	for i, set := range batch {
		if !productsort.IsSorted(set) {
			return 0, 0, fmt.Errorf("rows-vs-columns: set %d not sorted after columnar replay", i)
		}
	}
	return rows.Nanoseconds() / int64(sets), cols.Nanoseconds() / int64(sets), nil
}
