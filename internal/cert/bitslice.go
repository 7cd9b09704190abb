// The bitsliced 0-1 evaluator: 64 input vectors per word, one AND/OR
// pair per comparator, parallel worker blocks over the vector space.

package cert

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"productsort/internal/schedule"
)

// lowPat[p] is the periodic bit pattern of digit p over one 64-vector
// block: bit j is set iff bit p of j is set. Vector index bits below 6
// cycle inside a 64-aligned block, so initialization needs no per-lane
// work.
var lowPat = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// exOp is one flattened exchange op: its index in the program stream
// and its pairs.
type exOp struct {
	index int
	pairs [][2]int
}

// layout caches the program geometry every evaluation needs: the snake
// order (sortedness is judged along it), its inverse, and the flattened
// exchange ops.
type layout struct {
	n           int
	snake       []int // snake[p] = node id at snake position p
	pos         []int // pos[node] = snake position
	exOps       []exOp
	comparators int
}

func newLayout(prog *schedule.Program) *layout {
	net := prog.Net()
	n := net.Nodes()
	lay := &layout{n: n, snake: make([]int, n), pos: make([]int, n)}
	for p := 0; p < n; p++ {
		node := net.NodeAtSnake(p)
		lay.snake[p] = node
		lay.pos[node] = p
	}
	ops := prog.Ops()
	for i := range ops {
		switch ops[i].Kind {
		case schedule.OpCompareExchange, schedule.OpRoutedExchange:
			lay.exOps = append(lay.exOps, exOp{index: i, pairs: ops[i].Pairs})
			lay.comparators += len(ops[i].Pairs)
		}
	}
	return lay
}

// replayWord runs every comparator over one 64-vector word block:
// min = AND, max = OR. cov[k] is set when flattened comparator k was
// observed exchanging (lo carried a 1 while hi carried a 0) in any
// lane.
func (lay *layout) replayWord(words []uint64, cov []bool) {
	k := 0
	for _, op := range lay.exOps {
		for _, pr := range op.pairs {
			wa, wb := words[pr[0]], words[pr[1]]
			if wa&^wb != 0 {
				cov[k] = true
			}
			words[pr[0]] = wa & wb
			words[pr[1]] = wa | wb
			k++
		}
	}
}

// violations returns the lanes whose output is not sorted along the
// snake: bit j is set when some adjacent snake pair holds (1, 0) in
// lane j.
func (lay *layout) violations(words []uint64) uint64 {
	var bad uint64
	prev := words[lay.snake[0]]
	for p := 1; p < lay.n; p++ {
		cur := words[lay.snake[p]]
		bad |= prev &^ cur
		prev = cur
	}
	return bad
}

// deadComparators converts merged coverage into the lint report.
func (lay *layout) deadComparators(cov []bool) []DeadComparator {
	var dead []DeadComparator
	k := 0
	for _, op := range lay.exOps {
		for j, pr := range op.pairs {
			if !cov[k] {
				dead = append(dead, DeadComparator{Op: op.index, Pair: j, Lo: pr[0], Hi: pr[1]})
			}
			k++
		}
	}
	return dead
}

// exhaustive replays all 2^n vectors. Workers own strided block ranges
// and race toward the smallest failing vector index; a worker abandons
// blocks that can no longer improve the current minimum, so the
// reported witness is the global minimum regardless of scheduling. The
// work counts are too: a failing run reports the block prefix up to
// and including the failing block, not whatever blocks the workers
// happened to finish before they stopped.
func exhaustive(prog *schedule.Program, opt Options) (*Result, error) {
	start := time.Now()
	lay := newLayout(prog)
	n := lay.n
	totalVecs := uint64(1) << n
	blocks := (totalVecs + 63) / 64
	if blocks == 0 {
		blocks = 1
	}
	workers := min(opt.workers(), int(blocks))

	var earliest atomic.Uint64
	earliest.Store(math.MaxUint64)
	covs := make([][]bool, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			words := make([]uint64, n)
			cov := make([]bool, lay.comparators)
			covs[w] = cov
			for blk := uint64(w); blk < blocks; blk += uint64(workers) {
				base := blk << 6
				if base >= earliest.Load() {
					break
				}
				for node := 0; node < n; node++ {
					p := lay.pos[node]
					if p < 6 {
						words[node] = lowPat[p]
					} else if (base>>p)&1 == 1 {
						words[node] = ^uint64(0)
					} else {
						words[node] = 0
					}
				}
				lay.replayWord(words, cov)
				if bad := lay.violations(words); bad != 0 {
					vec := base + uint64(bits.TrailingZeros64(bad))
					for {
						cur := earliest.Load()
						if vec >= cur || earliest.CompareAndSwap(cur, vec) {
							break
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	fail := earliest.Load()
	words := blocks
	if fail != math.MaxUint64 {
		words = fail>>6 + 1
	}
	res := &Result{
		Exhaustive:  true,
		Keys:        n,
		Vectors:     totalVecs,
		Words:       words,
		WordOps:     words * uint64(lay.comparators),
		Ops:         len(lay.exOps),
		Comparators: lay.comparators,
		Elapsed:     time.Since(start),
	}
	if fail != math.MaxUint64 {
		vec := make([]byte, n)
		for p := 0; p < n; p++ {
			vec[p] = byte((fail >> p) & 1)
		}
		res.Witness = buildWitness(lay, vec)
		res.Elapsed = time.Since(start)
		return res, nil
	}
	res.Certified = true
	res.Dead = lay.deadComparators(mergeCov(covs, lay.comparators))
	res.Elapsed = time.Since(start)
	return res, nil
}

// sampled replays a seeded uniform random 0-1 sample. Block contents
// are a pure function of (seed, block index), so the run — including
// any witness — is reproducible and independent of worker scheduling:
// workers race toward the lowest failing block index, and a failing
// run's counts cover the block prefix through that index.
func sampled(prog *schedule.Program, opt Options) (*Result, error) {
	start := time.Now()
	lay := newLayout(prog)
	n := lay.n
	vectors := uint64(opt.sampleVectors())
	blocks := (vectors + 63) / 64
	vectors = blocks * 64
	workers := min(opt.workers(), int(blocks))

	var bestBlock atomic.Uint64
	bestBlock.Store(math.MaxUint64)
	var mu sync.Mutex
	var bestVec []byte
	var bestBlockLocked uint64 = math.MaxUint64
	covs := make([][]bool, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			words := make([]uint64, n)
			initial := make([]uint64, n)
			cov := make([]bool, lay.comparators)
			covs[w] = cov
			for blk := uint64(w); blk < blocks; blk += uint64(workers) {
				if blk >= bestBlock.Load() {
					break
				}
				rng := splitmix64(uint64(opt.Seed) ^ (blk+1)*0x9E3779B97F4A7C15)
				for node := 0; node < n; node++ {
					x := rng.next()
					words[node] = x
					initial[node] = x
				}
				lay.replayWord(words, cov)
				if bad := lay.violations(words); bad != 0 {
					lane := bits.TrailingZeros64(bad)
					for {
						cur := bestBlock.Load()
						if blk >= cur {
							break
						}
						if bestBlock.CompareAndSwap(cur, blk) {
							vec := make([]byte, n)
							for p := 0; p < n; p++ {
								vec[p] = byte((initial[lay.snake[p]] >> lane) & 1)
							}
							mu.Lock()
							if blk < bestBlockLocked {
								bestBlockLocked, bestVec = blk, vec
							}
							mu.Unlock()
							break
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	words := blocks
	if bestVec != nil {
		words = bestBlockLocked + 1
	}
	res := &Result{
		Exhaustive:  false,
		Keys:        n,
		Vectors:     words * 64,
		Words:       words,
		WordOps:     words * uint64(lay.comparators),
		Ops:         len(lay.exOps),
		Comparators: lay.comparators,
		Elapsed:     time.Since(start),
	}
	if bestVec != nil {
		res.Witness = buildWitness(lay, bestVec)
		res.Elapsed = time.Since(start)
		return res, nil
	}
	res.Certified = true
	res.Dead = lay.deadComparators(mergeCov(covs, lay.comparators))
	res.Elapsed = time.Since(start)
	return res, nil
}

// mergeCov ORs the per-worker coverage bitmaps. Workers that never ran
// leave a nil slice.
func mergeCov(covs [][]bool, comparators int) []bool {
	merged := make([]bool, comparators)
	for _, cov := range covs {
		for k, hit := range cov {
			if hit {
				merged[k] = true
			}
		}
	}
	return merged
}

// splitmix64 is the SplitMix64 generator: tiny, seedable, and plenty
// uniform for 0-1 sampling.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
