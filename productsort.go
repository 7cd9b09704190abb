// Package productsort sorts keys on simulated homogeneous product
// networks with the generalized multiway-merge algorithm of Fernández &
// Efe ("Generalized Algorithm for Parallel Sorting on Product Networks",
// ICPP 1995 / IEEE TPDS).
//
// A product network PG_r is built from an N-node factor graph G: nodes
// are r-tuples over {0..N-1}, adjacent when they differ in one symbol by
// an edge of G. Hypercubes (G = K2), grids (G = path), tori (G = cycle),
// mesh-connected trees (G = complete binary tree), Petersen cubes, and
// products of de Bruijn or shuffle-exchange graphs are all instances —
// and the same Sort call runs on every one of them, in
// (r-1)²·S₂(N) + (r-1)(r-2)·R(N) parallel rounds (Theorem 1).
//
// Basic use:
//
//	nw, _ := productsort.Grid(4, 3)            // 4×4×4 grid
//	res, _ := productsort.Sort(nw, keys)       // len(keys) == 64
//	fmt.Println(res.Keys)                      // sorted, snake order
//	fmt.Println(res.Rounds)                    // parallel time
//
// For request-driven workloads, NewServer wraps the same compiled
// programs in a batching sort service whose submit path is lock-free
// end to end — plans resolve through an immutable snapshot map behind
// one atomic pointer and admission through one atomic counter per size
// bucket (see server.go and Server.StoreStats for the observability
// surface).
package productsort

import (
	"fmt"

	"productsort/internal/core"
	"productsort/internal/graph"
	"productsort/internal/obs"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/simnet"
	"productsort/internal/sort2d"
)

// Key is the sortable value type: int64.
type Key = simnet.Key

// Network is a homogeneous product network.
type Network struct {
	net *product.Network
}

// Grid returns the r-dimensional grid with side n: the product of
// n-node paths (Section 5.1).
func Grid(n, r int) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("productsort: grid side %d < 2", n)
	}
	return wrap(graph.Path(n), r)
}

// Torus returns the r-dimensional torus with side n: the product of
// n-node cycles (used in the Corollary's emulation argument).
func Torus(n, r int) (*Network, error) {
	if n < 3 {
		return nil, fmt.Errorf("productsort: torus side %d < 3", n)
	}
	return wrap(graph.Cycle(n), r)
}

// Hypercube returns the r-dimensional hypercube: the product of K2
// (Section 5.3).
func Hypercube(r int) (*Network, error) { return wrap(graph.K2(), r) }

// MeshConnectedTrees returns the r-dimensional mesh-connected trees
// network: the product of complete binary trees with the given number of
// levels (Section 5.2). The factor is not Hamiltonian for levels ≥ 3, so
// sweeps use routed compare-exchange, exactly as the paper prescribes.
func MeshConnectedTrees(levels, r int) (*Network, error) {
	if levels < 1 {
		return nil, fmt.Errorf("productsort: tree levels %d < 1", levels)
	}
	return wrap(graph.CompleteBinaryTree(levels), r)
}

// PetersenCube returns the r-dimensional product of the Petersen graph
// (Section 5.4): 10^r nodes of degree 3r.
func PetersenCube(r int) (*Network, error) { return wrap(graph.Petersen(), r) }

// DeBruijnProduct returns the r-dimensional product of the base-b,
// dimension-d de Bruijn graph (Section 5.5).
func DeBruijnProduct(b, d, r int) (*Network, error) {
	if b < 2 || d < 1 {
		return nil, fmt.Errorf("productsort: de Bruijn base %d / dim %d invalid", b, d)
	}
	return wrap(graph.DeBruijn(b, d), r)
}

// ShuffleExchangeProduct returns the r-dimensional product of the
// dimension-d shuffle-exchange graph (Section 5.5).
func ShuffleExchangeProduct(d, r int) (*Network, error) {
	if d < 1 {
		return nil, fmt.Errorf("productsort: shuffle-exchange dim %d < 1", d)
	}
	return wrap(graph.ShuffleExchange(d), r)
}

// Custom returns the r-dimensional product of a caller-supplied factor
// graph given as an edge list over nodes 0..n-1. The node labels define
// the sorted order; if they happen to trace a Hamiltonian path the sort
// uses single-hop compare-exchange, otherwise routed exchanges. Use
// RelabelHamiltonian to search for a better labeling first.
func Custom(name string, n int, edges [][2]int, r int) (*Network, error) {
	g, err := graph.New(name, n, edges)
	if err != nil {
		return nil, err
	}
	return wrap(g, r)
}

// RelabelHamiltonian searches the factor graph of nw for a Hamiltonian
// path (exponential search, intended for factors with ≲ 24 nodes) and
// returns a network whose factor is relabeled along it. The boolean
// reports whether the labels now trace a Hamiltonian path.
func RelabelHamiltonian(nw *Network) (*Network, bool) {
	g, ok := graph.HamiltonianRelabel(nw.net.Factor())
	if !ok {
		return nw, false
	}
	out, err := wrap(g, nw.net.R())
	if err != nil {
		panic(err) // same parameters as the valid input network
	}
	return out, true
}

func wrap(g *graph.Graph, r int) (*Network, error) {
	p, err := product.New(g, r)
	if err != nil {
		return nil, err
	}
	return &Network{net: p}, nil
}

// Name describes the network, e.g. "petersen^3".
func (nw *Network) Name() string { return nw.net.Name() }

// Nodes returns the processor count N^r.
func (nw *Network) Nodes() int { return nw.net.Nodes() }

// Dims returns the dimension count r.
func (nw *Network) Dims() int { return nw.net.R() }

// FactorSize returns the factor graph's node count N.
func (nw *Network) FactorSize() int { return nw.net.N() }

// Diameter returns the network diameter (r × factor diameter).
func (nw *Network) Diameter() int { return nw.net.Diameter() }

// Edges returns the total edge count.
func (nw *Network) Edges() int { return nw.net.EdgeCount() }

// HamiltonianFactor reports whether the factor labels trace a
// Hamiltonian path (single-hop compare-exchange) or not (routed).
func (nw *Network) HamiltonianFactor() bool {
	return nw.net.Factor().HamiltonianLabeled()
}

// SnakeOrder returns, for each snake position, the node id holding that
// position; Result.Keys follows this order.
func (nw *Network) SnakeOrder() []int {
	out := make([]int, nw.Nodes())
	for pos := range out {
		out[pos] = nw.net.NodeAtSnake(pos)
	}
	return out
}

// Result reports the outcome of a Sort.
type Result struct {
	// Keys holds the sorted keys in snake order.
	Keys []Key
	// ByNode holds the sorted keys indexed by node id.
	ByNode []Key
	// Rounds is the parallel communication time.
	Rounds int
	// S2Rounds and SweepRounds split Rounds between PG_2 sorting and
	// inter-subgraph transposition sweeps.
	S2Rounds, SweepRounds int
	// S2Phases is the number of PG_2 sort invocations; Theorem 1
	// predicts (r-1)².
	S2Phases int
	// Sweeps is the number of transposition sweeps; Theorem 1 predicts
	// (r-1)(r-2).
	Sweeps int
	// RoutedPhases counts phases that needed multi-hop routing (only
	// non-Hamiltonian factors).
	RoutedPhases int
	// Engine is the S_2 engine used.
	Engine string
	// Faults carries the fault-injection and recovery accounting of a
	// SortResilient or SortRandomized run; nil for fault-free sorts.
	Faults *FaultReport
	// Random carries the convergence accounting of a SortRandomized
	// run; nil for deterministic sorts.
	Random *RandomizedReport
}

// Sorter configures the algorithm.
type Sorter struct {
	engine     sort2d.Engine
	goroutines bool
	observer   func(stage string, snakeKeys []Key)
	tracer     obs.Tracer
}

// Option configures a Sorter.
type Option func(*Sorter) error

// WithEngine selects the S_2 engine by name: "auto" (default),
// "shearsort", "snake-oet", or "opt4" (N=2 factors only).
func WithEngine(name string) Option {
	return func(s *Sorter) error {
		e, err := sort2d.ByName(name)
		if err != nil {
			return err
		}
		s.engine = e
		return nil
	}
}

// WithGoroutines executes every compare-exchange phase with
// message-passing goroutines (one per participating processor) instead
// of the sequential executor. Results and round counts are identical;
// this exists to exercise true concurrency.
func WithGoroutines() Option {
	return func(s *Sorter) error {
		s.goroutines = true
		return nil
	}
}

// WithObserver registers a callback invoked after each major algorithm
// stage with the keys in snake order — useful for tracing.
func WithObserver(fn func(stage string, snakeKeys []Key)) Option {
	return func(s *Sorter) error {
		s.observer = fn
		return nil
	}
}

// NewSorter builds a Sorter from options.
func NewSorter(opts ...Option) (*Sorter, error) {
	s := &Sorter{engine: sort2d.Auto{}}
	for _, o := range opts {
		if err := o(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newResult assembles a Result from a replay clock and sorted keys
// (indexed by node id).
func newResult(nw *Network, clk simnet.Clock, engineName string, byNode []Key) *Result {
	snake := make([]Key, len(byNode))
	for pos := range snake {
		snake[pos] = byNode[nw.net.NodeAtSnake(pos)]
	}
	return &Result{
		Keys:         snake,
		ByNode:       byNode,
		Rounds:       clk.Rounds,
		S2Rounds:     clk.S2Rounds,
		SweepRounds:  clk.SweepRounds,
		S2Phases:     clk.S2Phases,
		Sweeps:       clk.SweepPhases,
		RoutedPhases: clk.RoutedPhases,
		Engine:       engineName,
	}
}

// Sort sorts keys on the network and returns the result. len(keys) must
// equal nw.Nodes(). Keys are assigned to nodes in snake order: keys[i]
// starts at snake position i. (Initial placement does not affect the
// algorithm's behaviour or cost; it is oblivious.)
//
// The sort replays the network's compiled phase program (see Compile);
// the first call on a topology compiles and caches it, later calls on
// the same topology — from any Sorter or goroutine — replay without
// rebuilding the schedule. Only an observer forces the direct path, so
// stage snapshots can be taken mid-flight.
func (s *Sorter) Sort(nw *Network, keys []Key) (*Result, error) {
	if len(keys) != nw.Nodes() {
		return nil, fmt.Errorf("productsort: %d keys for %d nodes", len(keys), nw.Nodes())
	}
	if s.observer == nil {
		c, err := s.Compile(nw)
		if err != nil {
			return nil, err
		}
		return c.Sort(keys)
	}
	m, err := simnet.New(nw.net, make([]Key, len(keys)))
	if err != nil {
		return nil, err
	}
	m.LoadSnake(keys)
	if s.goroutines {
		m.SetExecutor(simnet.GoroutineExec{})
	}
	if s.tracer != nil {
		m.SetTracer(s.tracer)
	}
	alg := core.New(s.engine)
	mach := m
	alg.Observer = func(stage string, _ sort2d.Machine) { s.observer(stage, mach.SnakeKeys()) }
	alg.Sort(m)
	return newResult(nw, m.Clock(), s.engine.Name(), m.Keys()), nil
}

// Sort sorts with the default configuration (auto S_2 engine).
func Sort(nw *Network, keys []Key) (*Result, error) {
	s, err := NewSorter()
	if err != nil {
		return nil, err
	}
	return s.Sort(nw, keys)
}

// CompiledNetwork is a network bound to its compiled phase program: the
// algorithm has run once (symbolically) and its full compare-exchange
// schedule, with per-round costs, is frozen. Sort and SortBatch replay
// the program without any schedule construction; the program itself
// lives in a process-wide cache keyed by topology, labeling, and
// engine, so compiling the "same" network twice is free. Safe for
// concurrent use.
type CompiledNetwork struct {
	nw     *Network
	prog   *schedule.Program
	exec   simnet.Executor
	tracer obs.Tracer
	family string // "" means FamilyProduct; see Family()
}

// Compile returns the network bound to its cached phase program for the
// Sorter's engine. The first compile of a topology runs the algorithm
// once to record the program; every later compile — from any Sorter —
// is a cache hit.
func (s *Sorter) Compile(nw *Network) (*CompiledNetwork, error) {
	prog, err := schedule.Compile(nw.net, s.engine)
	if err != nil {
		return nil, err
	}
	var exec simnet.Executor
	if s.goroutines {
		exec = simnet.GoroutineExec{}
	}
	return &CompiledNetwork{nw: nw, prog: prog, exec: exec, tracer: s.tracer}, nil
}

// Compile compiles the network with the default configuration.
func Compile(nw *Network) (*CompiledNetwork, error) {
	s, err := NewSorter()
	if err != nil {
		return nil, err
	}
	return s.Compile(nw)
}

// Network returns the network the program was compiled for.
func (c *CompiledNetwork) Network() *Network { return c.nw }

// Rounds returns the program's parallel round count (what every Sort
// will report).
func (c *CompiledNetwork) Rounds() int { return c.prog.Rounds() }

// Depth returns the number of non-empty compare-exchange phases.
func (c *CompiledNetwork) Depth() int { return c.prog.Depth() }

// Size returns the total comparator count.
func (c *CompiledNetwork) Size() int { return c.prog.Size() }

// Sort replays the compiled program over keys (snake order, like
// Sorter.Sort) and returns the result. No schedule work happens here —
// just compare-exchanges.
func (c *CompiledNetwork) Sort(keys []Key) (*Result, error) {
	if len(keys) != c.nw.Nodes() {
		return nil, fmt.Errorf("productsort: %d keys for %d nodes", len(keys), c.nw.Nodes())
	}
	byNode := make([]Key, len(keys))
	for pos, k := range keys {
		byNode[c.nw.net.NodeAtSnake(pos)] = k
	}
	clk, err := schedule.ExecBackend{Exec: c.exec, Tracer: c.tracer}.Run(c.prog, byNode)
	if err != nil {
		return nil, err
	}
	return newResult(c.nw, clk, c.prog.Engine(), byNode), nil
}

// batchColumns recycles the column slabs SortBatch transposes batches
// through, shared across all compiled networks (the pool tolerates
// mixed shapes: undersized slabs are dropped and regrown).
var batchColumns = schedule.NewColumnBuffer()

// SortBatch sorts many independent key sets (each in snake order, in
// place) through the one compiled program; workers < 1 picks a sensible
// default. This is the throughput mode the compile/execute split exists
// for: M sorts, one schedule. The replay is columnar: the batch is
// transposed into one contiguous column per snake position and the
// program is walked once for the whole batch, each compare-exchange a
// branchless min/max sweep across all sets (SIMD-accelerated where the
// host supports it); pooled slabs make a steady stream of batches
// allocate nothing per item.
func (c *CompiledNetwork) SortBatch(batch [][]Key, workers int) error {
	nodes := c.nw.Nodes()
	for i, keys := range batch {
		if len(keys) != nodes {
			return fmt.Errorf("productsort: batch[%d] has %d keys for %d nodes", i, len(keys), nodes)
		}
	}
	return schedule.RunBatchColumnar(c.prog, batch, workers, batchColumns)
}

// PredictedRounds returns Theorem 1's round count for this network with
// the named engine, valid exactly when every factor is
// Hamiltonian-labeled (one sweep then costs one round): for homogeneous
// networks this is (r-1)²·S₂ + (r-1)(r-2)·1; heterogeneous networks are
// evaluated by walking the same dimension recursion the sort performs.
func (nw *Network) PredictedRounds(engineName string) (int, error) {
	e, err := sort2d.ByName(engineName)
	if err != nil {
		return 0, err
	}
	return core.PredictedRounds(nw.net, e), nil
}

// IsSorted reports whether keys are nondecreasing.
func IsSorted(keys []Key) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}

// Merge merges the N sorted slabs of the network's top dimension into a
// fully sorted network: slab u (all nodes whose dimension-r symbol is u)
// must arrive sorted in its own snake order, given as slabs[u] with
// len == Nodes()/FactorSize(). This exposes the paper's multiway-merge
// step directly: merging N presorted streams in
// 2(r-2)·(S₂+R) + S₂ rounds (Lemma 3).
func (s *Sorter) Merge(nw *Network, slabs [][]Key) (*Result, error) {
	r := nw.Dims()
	if r < 2 {
		return nil, fmt.Errorf("productsort: merge needs at least 2 dimensions")
	}
	topRadix := nw.net.Radix(r)
	if len(slabs) != topRadix {
		return nil, fmt.Errorf("productsort: %d slabs for top radix %d", len(slabs), topRadix)
	}
	slabSize := nw.Nodes() / topRadix
	subDims := make([]int, r-1)
	for i := range subDims {
		subDims[i] = i + 1
	}
	m, err := simnet.New(nw.net, make([]Key, nw.Nodes()))
	if err != nil {
		return nil, err
	}
	keys := make([]Key, nw.Nodes())
	for u, slab := range slabs {
		if len(slab) != slabSize {
			return nil, fmt.Errorf("productsort: slab %d has %d keys, want %d", u, len(slab), slabSize)
		}
		if !IsSorted(slab) {
			return nil, fmt.Errorf("productsort: slab %d is not sorted", u)
		}
		base := nw.net.SetDigit(0, r, u)
		for pos, k := range slab {
			keys[nw.net.NodeInBlock(base, subDims, pos)] = k
		}
	}
	snake := make([]Key, len(keys))
	for pos := range snake {
		snake[pos] = keys[nw.net.NodeAtSnake(pos)]
	}
	m.LoadSnake(snake)
	if s.goroutines {
		m.SetExecutor(simnet.GoroutineExec{})
	}
	if s.tracer != nil {
		m.SetTracer(s.tracer)
	}
	core.New(s.engine).Merge(m, r)
	return newResult(nw, m.Clock(), s.engine.Name(), m.Keys()), nil
}

// SnakeCutWidth returns the edge count of the snake-order bisection: an
// upper bound on the network's bisection width, the quantity behind the
// paper's Section 5.2 lower-bound discussion.
func (nw *Network) SnakeCutWidth() int { return nw.net.SnakeCutWidth() }
