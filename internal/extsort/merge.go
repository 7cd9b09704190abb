// The k-way merge: a loser tree over run cursors, the software image
// of the paper's Section 3 multiway merge. The tree's internal nodes
// hold the losers of the matches along each winner's path to the root,
// so emitting the minimum and reseating its replacement costs exactly
// ⌈log₂ k⌉ comparisons — the same per-level compare cascade the
// merging network performs in one parallel step, serialized. When the
// run count exceeds the widest merge the memory budget allows, full
// passes merge groups of runs into intermediate spill segments
// (bounded memory: a pass holds one read buffer per input and one
// write buffer, never a whole spilled run), exactly the recursive
// composition the agglomeration law certifies (THEORY.md §15).

package extsort

import (
	"context"
	"time"
)

// outBlockKeys is the merged-output block size: the granularity of
// Writer.Write calls, context checks, and intermediate segment writes.
const outBlockKeys = 4096

// mergeWidth derives the merge fan-in from the run count and the
// memory budget. A merge of k inputs holds k read buffers and one
// output block, so the budget allows kMax = memoryKeys/spillBufKeys − 1
// inputs. The merge takes the fewest passes p with kMax^p ≥ runs and
// the narrowest width k ≥ 2 with k^p ≥ runs: each of the first p−1
// passes merges groups of k into spill segments, which leaves at most
// k runs for the final pass.
func mergeWidth(runs, memoryKeys int) int {
	kMax := memoryKeys/spillBufKeys - 1
	passes := 1
	for reach := kMax; reach < runs; reach *= kMax {
		passes++
	}
	k := 2
	for !covers(k, passes, runs) {
		k++
	}
	return k
}

// covers reports whether k^p ≥ runs.
func covers(k, p, runs int) bool {
	x := 1
	for range p {
		x *= k
	}
	return x >= runs
}

// mergeRuns merges every run in the store into dst, in the passes
// mergeWidth derives.
func mergeRuns(ctx context.Context, store *runStore, dst Writer, cfg Config, stats *Stats, met *metrics) error {
	t0 := time.Now()
	defer func() {
		d := time.Since(t0).Nanoseconds()
		stats.MergeNs += d
		if met != nil {
			met.mergeNs.Observe(d)
			met.mergePasses.Add(int64(stats.MergePasses))
		}
	}()

	// The merge owns the handles from here on: each pass drops the
	// runs it consumed, so resident runs are freed as they are merged.
	handles := store.runs
	store.runs = nil
	if len(handles) == 0 {
		return nil // empty input: nothing to write
	}
	k := mergeWidth(len(handles), cfg.MemoryKeys)
	stats.FanIn = k
	for len(handles) > k {
		var err error
		if handles, err = mergePass(ctx, store, handles, k, stats, met); err != nil {
			return err
		}
	}
	// Final pass: fan the surviving runs into the sink.
	stats.MergePasses++
	return drain(ctx, newLoserTree(store, handles, stats, met), dst)
}

// mergePass merges handles in groups of k into spill segments and
// returns the merged runs. It clears each group's handles once merged,
// so a consumed resident run is garbage by the next group.
func mergePass(ctx context.Context, store *runStore, handles []runHandle, k int, stats *Stats, met *metrics) ([]runHandle, error) {
	next := make([]runHandle, 0, (len(handles)+k-1)/k)
	for lo := 0; lo < len(handles); lo += k {
		group := handles[lo:min(lo+k, len(handles))]
		merged := group[0]
		if len(group) > 1 {
			w, err := store.beginSegment()
			if err != nil {
				return nil, err
			}
			if err := drain(ctx, newLoserTree(store, group, stats, met), w); err != nil {
				return nil, err
			}
			if merged, err = w.finish(); err != nil {
				return nil, err
			}
		}
		next = append(next, merged)
		clear(group)
	}
	stats.MergePasses++
	return next, nil
}

// drain pops the tree dry into w in outBlockKeys blocks, checking the
// context between blocks; it is the loop of every merge pass, final or
// intermediate.
func drain(ctx context.Context, lt *loserTree, w Writer) error {
	block := make([]Key, 0, outBlockKeys)
	for {
		k, ok := lt.pop()
		if !ok {
			break
		}
		block = append(block, k)
		if len(block) == outBlockKeys {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := w.Write(block); err != nil {
				return err
			}
			block = block[:0]
		}
	}
	if err := lt.fail(); err != nil {
		return err
	}
	if len(block) > 0 {
		return w.Write(block)
	}
	return nil
}

// observeFanIn records one realized merge width.
func observeFanIn(k int, stats *Stats, met *metrics) {
	if k > stats.MaxFanIn {
		stats.MaxFanIn = k
	}
	if met != nil {
		met.fanIn.Observe(int64(k))
	}
}

// loserTree is the tournament the merge runs. Leaves are run cursors
// (padded to a power of two with exhausted dummies); internal node j
// holds the loser of the match played there, and the overall winner
// rides in a register. Ties break toward the lower cursor index, so
// the merge is deterministic for any input.
type loserTree struct {
	k       int // padded leaf count, power of two
	winner  int
	tree    []int // internal nodes 1..k-1; tree[j] = loser at j
	heads   []Key
	done    []bool
	cursors []cursor
}

// newLoserTree opens a cursor per handle, records the merge width, and
// plays the initial matches.
func newLoserTree(store *runStore, handles []runHandle, stats *Stats, met *metrics) *loserTree {
	observeFanIn(len(handles), stats, met)
	n := len(handles)
	cursors := make([]cursor, n)
	for i, h := range handles {
		cursors[i] = store.cursor(h)
	}
	k := 1
	for k < n {
		k <<= 1
	}
	lt := &loserTree{
		k:       k,
		tree:    make([]int, k),
		heads:   make([]Key, k),
		done:    make([]bool, k),
		cursors: cursors,
	}
	for i := 0; i < k; i++ {
		if i < n {
			if head, ok := lt.cursors[i].next(); ok {
				lt.heads[i] = head
				continue
			}
		}
		lt.done[i] = true
	}
	// Play the full bracket bottom-up: win[j] is the winner of the
	// subtree at internal node j, tree[j] the loser of its match.
	win := make([]int, k)
	winnerOf := func(m int) int {
		if m >= k {
			return m - k
		}
		return win[m]
	}
	for j := k - 1; j >= 1; j-- {
		a, b := winnerOf(2*j), winnerOf(2*j+1)
		if lt.beats(b, a) {
			a, b = b, a
		}
		win[j] = a
		lt.tree[j] = b
	}
	if k == 1 {
		lt.winner = 0
	} else {
		lt.winner = win[1]
	}
	return lt
}

// beats reports whether cursor a's head wins against cursor b's:
// exhausted cursors always lose, equal keys go to the lower index.
func (lt *loserTree) beats(a, b int) bool {
	switch {
	case lt.done[a]:
		return false
	case lt.done[b]:
		return true
	case lt.heads[a] != lt.heads[b]:
		return lt.heads[a] < lt.heads[b]
	default:
		return a < b
	}
}

// pop emits the minimum head and reseats the winner's replacement along
// its root path — the ⌈log₂ k⌉-compare cascade.
func (lt *loserTree) pop() (Key, bool) {
	w := lt.winner
	if lt.done[w] {
		return 0, false
	}
	out := lt.heads[w]
	if head, ok := lt.cursors[w].next(); ok {
		lt.heads[w] = head
	} else {
		lt.done[w] = true
	}
	for j := (w + lt.k) / 2; j >= 1; j /= 2 {
		if lt.beats(lt.tree[j], w) {
			lt.tree[j], w = w, lt.tree[j]
		}
	}
	lt.winner = w
	return out, true
}

// fail surfaces the first cursor read error, distinguishing a failed
// spill read from a cleanly exhausted merge.
func (lt *loserTree) fail() error {
	for i := range lt.cursors {
		if err := lt.cursors[i].err; err != nil {
			return err
		}
	}
	return nil
}
