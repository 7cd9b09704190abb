// Package cert is the 0-1 certification engine for compiled schedule
// programs: a machine-checked sorting proof per topology.
//
// Every internal/schedule.Program is a data-oblivious comparator
// network — its exchange ops apply (min, max) to fixed node pairs
// regardless of the keys. Knuth's 0-1 principle therefore applies: the
// program sorts all inputs if and only if it sorts all 2^n vectors of
// zeros and ones (THEORY.md §11 states the argument for this IR). On
// 0-1 values a compare-exchange degenerates to pure boolean algebra,
//
//	min(a, b) = a AND b,   max(a, b) = a OR b,
//
// so the certifier packs 64 input vectors into one machine word per
// node and replays the program once per word: each exchange pair costs
// two word operations and certifies 64 inputs at a time. Word blocks
// are spread over parallel workers, and the exhaustive sweep over all
// 2^n vectors is feasible for every built-in factor family with
// n = N^r ≤ ~24 keys in well under a minute.
//
// When a program fails, the engine reports the smallest failing vector
// index and Minimize shrinks it to a minimal witness: fewest ones
// first, then lexicographically least (in snake order), together with
// the first op index at which the sorted-prefix metric breaks — the
// shortest human-checkable refutation the engine can produce.
//
// Above the exhaustive envelope, Sampled mode replays seeded uniform
// random 0-1 vectors instead. A sampled pass cannot prove correctness,
// but it keeps the same witness machinery and adds a coverage lint:
// comparators never observed exchanging across the whole sample are
// reported as dead (on an exhaustive certified pass, a dead comparator
// is provably removable).
package cert

import (
	"fmt"
	"runtime"
	"time"

	"productsort/internal/schedule"
)

// DefaultMaxExhaustiveKeys bounds the exhaustive sweep: 2^24 vectors
// (262144 word blocks) is the largest envelope that stays interactive.
const DefaultMaxExhaustiveKeys = 24

// maxExhaustiveHard is the absolute cap on exhaustive certification;
// beyond it the vector space no longer fits a sane run regardless of
// what the caller asks for.
const maxExhaustiveHard = 30

// DefaultSampleVectors is the sampled-mode default: 2^16 random 0-1
// vectors.
const DefaultSampleVectors = 1 << 16

// Options configures a certification run. The zero value asks for an
// exhaustive proof when the network has at most DefaultMaxExhaustiveKeys
// keys and a DefaultSampleVectors random sweep above that.
type Options struct {
	// Workers is the parallel worker count; <1 selects GOMAXPROCS.
	Workers int
	// MaxExhaustiveKeys is the largest key count certified exhaustively
	// (<1 selects DefaultMaxExhaustiveKeys, capped at 30). Networks with
	// more keys fall back to sampled mode.
	MaxExhaustiveKeys int
	// SampleVectors is the sampled-mode vector count, rounded up to a
	// multiple of 64 (<1 selects DefaultSampleVectors).
	SampleVectors int
	// Seed drives sampled-mode vector generation; runs are reproducible
	// per (program, seed, SampleVectors).
	Seed int64
	// ForceSampled runs sampled mode even inside the exhaustive
	// envelope (used to exercise the sampling path on small networks).
	ForceSampled bool
}

// workers resolves the worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// maxExhaustive resolves the exhaustive envelope.
func (o Options) maxExhaustive() int {
	m := o.MaxExhaustiveKeys
	if m < 1 {
		m = DefaultMaxExhaustiveKeys
	}
	return min(m, maxExhaustiveHard)
}

// sampleVectors resolves the sampled-mode vector count.
func (o Options) sampleVectors() int {
	if o.SampleVectors > 0 {
		return o.SampleVectors
	}
	return DefaultSampleVectors
}

// DeadComparator identifies one comparator that was never observed
// exchanging (its lo key was never 1 while its hi key was 0) across the
// certified input set. On an exhaustive certified run this is a proof
// the comparator is removable; on a sampled run it is a lint.
type DeadComparator struct {
	// Op is the op index in the program's instruction stream.
	Op int `json:"op"`
	// Pair is the pair's index within the op.
	Pair int `json:"pair"`
	// Lo and Hi are the pair's node ids.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Witness is a concrete 0-1 input the program fails to sort, shrunk by
// Minimize.
type Witness struct {
	// Vector holds the failing input: Vector[p] is the 0/1 key loaded
	// at snake position p.
	Vector []byte `json:"vector"`
	// Ones is the Hamming weight of Vector.
	Ones int `json:"ones"`
	// FailPos is the first snake position p of the replayed output with
	// output[p] = 1 and output[p+1] = 0 — where sortedness visibly
	// breaks.
	FailPos int `json:"failPos"`
	// BreakOp is the first op index at which the sorted-prefix metric
	// (the length of the longest output prefix already holding its
	// final sorted value) strictly decreases during the witness replay,
	// or -1 when the metric never decreases (the program then simply
	// stalls short of a full sorted prefix). It localizes the earliest
	// op that destroys sorted structure on this input.
	BreakOp int `json:"breakOp"`
	// Minimal reports 1-minimality: clearing any single 1 of Vector
	// yields an input the program sorts correctly.
	Minimal bool `json:"minimal"`
}

// String renders the witness vector most-significant-last, matching
// snake order left to right.
func (w *Witness) String() string {
	b := make([]byte, len(w.Vector))
	for i, v := range w.Vector {
		b[i] = '0' + v
	}
	return fmt.Sprintf("%s (ones=%d failPos=%d breakOp=%d)", b, w.Ones, w.FailPos, w.BreakOp)
}

// Result reports one certification run.
type Result struct {
	// Certified is true when every replayed 0-1 vector came out sorted.
	// Only an Exhaustive run turns this into a proof over all inputs.
	Certified bool `json:"certified"`
	// Exhaustive reports whether all 2^Keys vectors were covered.
	Exhaustive bool `json:"exhaustive"`
	// Keys is the network's key (node) count n.
	Keys int `json:"keys"`
	// Vectors is the number of distinct 0-1 inputs certified.
	Vectors uint64 `json:"vectors"`
	// Words is the number of 64-vector word blocks the verdict rests
	// on: every block when certified, the block prefix through the
	// first failing block otherwise. It is a pure function of the
	// program and the options, whatever the worker count.
	Words uint64 `json:"words"`
	// WordOps is Words times the comparator count: the bitsliced
	// comparator word operations the verdict rests on.
	WordOps uint64 `json:"wordOps"`
	// Ops is the number of round-consuming exchange ops in the program.
	Ops int `json:"ops"`
	// Comparators is the program's total pair count.
	Comparators int `json:"comparators"`
	// Dead lists comparators never observed exchanging; nil when the
	// run aborted on a failure (coverage would be incomplete).
	Dead []DeadComparator `json:"dead,omitempty"`
	// Elapsed is the wall time of the run.
	Elapsed time.Duration `json:"elapsedNs"`
	// Witness is the minimized failing input; nil when Certified.
	Witness *Witness `json:"witness,omitempty"`
}

// Run certifies prog: exhaustively over all 2^n 0-1 vectors when n is
// within the exhaustive envelope, by seeded random sampling otherwise.
// It validates the program's structural invariants first — certification
// is only meaningful over a well-formed IR.
func Run(prog *schedule.Program, opt Options) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("cert: invalid program: %w", err)
	}
	n := prog.Net().Nodes()
	if !opt.ForceSampled && n <= opt.maxExhaustive() {
		return exhaustive(prog, opt)
	}
	return sampled(prog, opt)
}

// Exhaustive certifies prog over all 2^n vectors, failing if n exceeds
// the (resolved) exhaustive envelope.
func Exhaustive(prog *schedule.Program, opt Options) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("cert: invalid program: %w", err)
	}
	if n := prog.Net().Nodes(); n > opt.maxExhaustive() {
		return nil, fmt.Errorf("cert: %d keys exceed the exhaustive envelope of %d", n, opt.maxExhaustive())
	}
	return exhaustive(prog, opt)
}

// Sampled certifies prog over a seeded random 0-1 sample of the input
// space. It never proves correctness; it hunts counterexamples and
// reports comparator coverage.
func Sampled(prog *schedule.Program, opt Options) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("cert: invalid program: %w", err)
	}
	return sampled(prog, opt)
}
