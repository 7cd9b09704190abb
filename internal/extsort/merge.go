// The k-way merge: a loser tree over run cursors, the software image
// of the paper's Section 3 multiway merge. The tree's internal nodes
// hold the losers of the matches along each winner's path to the root,
// so emitting the minimum and reseating its replacement costs exactly
// ⌈log₂ k⌉ comparisons — the same per-level compare cascade the
// merging network performs in one parallel step, serialized. When the
// run count exceeds the widest merge the memory budget allows, full
// passes merge groups of runs into intermediate spill segments
// (bounded memory: a merge holds one read buffer per input and one
// write buffer, never a whole spilled run), exactly the recursive
// composition the agglomeration law certifies (THEORY.md §15).
//
// Like the paper's merge, both passes get their speed from merging
// disjoint parts at once. An intermediate pass merges its groups on
// up to GOMAXPROCS goroutines, each into a spill range reserved in
// group order. The final pass cuts the key range at splitters sampled
// from the runs into partitions that workers merge concurrently, and
// the calling goroutine writes them to the sink in key order: every
// key of one partition is at most every key of the next (THEORY.md
// §15), so the concatenation is the merge.

package extsort

import (
	"context"
	"errors"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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

// mergePasses is how many passes merging runs in groups of k takes.
func mergePasses(runs, k int) int {
	passes := 1
	for ; runs > k; runs = (runs + k - 1) / k {
		passes++
	}
	return passes
}

// mergeConcurrency derives how many merges run at once: one per
// processor, as many as the budget holds the read buffers of — one
// per spilled input plus the output block — and always at least one.
func mergeConcurrency(spilled, memoryKeys, procs int) int {
	return max(1, min(procs, memoryKeys/((spilled+1)*spillBufKeys)))
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
	stats.MergePassNs = make([]int64, 0, mergePasses(len(handles), k))
	procs := runtime.GOMAXPROCS(0)
	for len(handles) > k {
		t := time.Now()
		var err error
		// A group may be all spilled runs: budget k read buffers each.
		if handles, err = mergePass(ctx, store, handles, k, mergeConcurrency(k, cfg.MemoryKeys, procs), stats, met); err != nil {
			return err
		}
		endPass(t, stats, met)
	}
	// Final pass: fan the surviving runs into the sink.
	t := time.Now()
	stats.MergePasses++
	observeFanIn(len(handles), stats, met)
	spilled := 0
	for _, h := range handles {
		if h.mem == nil {
			spilled++
		}
	}
	fm := newFinalMerge(cfg.MemoryKeys, mergeConcurrency(spilled, cfg.MemoryKeys, procs))
	if err := fm.run(ctx, store.file, handles, dst); err != nil {
		return err
	}
	endPass(t, stats, met)
	return nil
}

// endPass records the wall time of a merge pass that began at t.
func endPass(t time.Time, stats *Stats, met *metrics) {
	d := time.Since(t).Nanoseconds()
	stats.MergePassNs = append(stats.MergePassNs, d)
	if met != nil {
		met.passNs.Observe(d)
	}
}

// mergePass merges handles in groups of k into spill segments, up to
// conc groups at once, and returns the merged runs in group order.
// Every group's segment is reserved before any is written, so the
// spill layout and the accounting do not depend on which group
// finishes first. Each group's handles are cleared once it is merged,
// so a consumed resident run is garbage from then on.
func mergePass(ctx context.Context, store *runStore, handles []runHandle, k, conc int, stats *Stats, met *metrics) ([]runHandle, error) {
	groups := (len(handles) + k - 1) / k
	group := func(g int) []runHandle { return handles[g*k : min(g*k+k, len(handles))] }
	next := make([]runHandle, groups)
	writers := make([]*segmentWriter, groups) // nil for a lone run, which passes through
	for g := range writers {
		if grp := group(g); len(grp) > 1 {
			n := 0
			for _, h := range grp {
				n += h.keys()
			}
			w, err := store.reserve(n)
			if err != nil {
				return nil, err
			}
			writers[g] = w
			observeFanIn(len(grp), stats, met)
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		claimed  atomic.Int64
		wg       sync.WaitGroup
		failOnce sync.Once
		failed   error
	)
	for range min(conc, groups) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newScratch(store.file)
			out := make([]Key, 0, outBlockKeys)
			wbuf := make([]byte, spillBufKeys*keyBytes)
			for g := int(claimed.Add(1) - 1); g < groups; g = int(claimed.Add(1) - 1) {
				grp := group(g)
				if w := writers[g]; w == nil {
					next[g] = grp[0]
				} else {
					w.buf = wbuf
					h, err := mergeSegment(ctx, grp, sc, out, w)
					if err != nil {
						failOnce.Do(func() { failed = err; cancel() })
						return
					}
					next[g] = h
				}
				clear(grp)
			}
		}()
	}
	wg.Wait()
	if failed != nil {
		return nil, failed
	}
	for _, w := range writers {
		if w != nil {
			store.account(w.count)
		}
	}
	stats.MergePasses++
	return next, nil
}

// mergeSegment merges one group into its reserved spill segment.
func mergeSegment(ctx context.Context, group []runHandle, sc *scratch, out []Key, w *segmentWriter) (runHandle, error) {
	emit := func(b []Key) ([]Key, error) { return b, w.Write(b) }
	if _, err := drain(ctx, newLoserTree(group, sc), out, emit); err != nil {
		return runHandle{}, err
	}
	return w.finish()
}

// finalMerge is the final pass's shape, derived from the budget and the
// merge concurrency:
//   - workers goroutines merge partitions;
//   - at most window = 2·workers partitions are being merged or
//     waiting to be written at once, so a worker that finishes its
//     partition starts the next while the writer catches up;
//   - a partition buffers at most queue output blocks, and partitions
//     are cut to about that size, queue·outBlockKeys keys, so a worker
//     rarely waits on the writer. The queues cap the output in flight
//     at maxBlocks however unevenly the keys fall into partitions:
//     half the budget, or one block per partition in the window when
//     the budget is smaller than that.
type finalMerge struct {
	workers, window, queue int
	// made counts the output blocks allocated. Blocks are recycled and
	// allocated only when none is free, so it is also the most blocks
	// ever in flight at once.
	made atomic.Int64
}

func newFinalMerge(memoryKeys, workers int) *finalMerge {
	window := 2 * workers
	return &finalMerge{workers: workers, window: window, queue: max(1, memoryKeys/(2*window*outBlockKeys)-1)}
}

// partKeys is the target partition size.
func (fm *finalMerge) partKeys() int { return fm.queue * outBlockKeys }

// maxBlocks bounds the output blocks in flight: a full queue for each
// partition in the window, the block each worker is filling, and the
// block being written.
func (fm *finalMerge) maxBlocks() int { return fm.window*fm.queue + fm.workers + 1 }

// errStopped ends a partition worker whose output is no longer wanted.
var errStopped = errors.New("extsort: merge stopped")

// run merges handles into dst. Splitters cut the key range into
// partitions; workers claim partitions in key order, slice each run
// to the partition's range and merge the slices into the partition's
// block queue; the calling goroutine writes the queues to dst in
// order. On any error every worker has exited before run returns.
func (fm *finalMerge) run(ctx context.Context, file *os.File, handles []runHandle, dst Writer) error {
	split := splitters(handles, fm.partKeys())
	parts := make([]chan []Key, len(split)+1) // closed by the partition's worker
	errs := make([]error, len(parts))         // set before the close
	for p := range parts {
		parts[p] = make(chan []Key, fm.queue)
	}
	free := make(chan []Key, fm.maxBlocks())
	slots := make(chan struct{}, fm.window) // partitions claimed and not yet written
	stop := make(chan struct{})
	var (
		claimed atomic.Int64
		wg      sync.WaitGroup
	)
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for range min(fm.workers, len(parts)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := partWorker{fm: fm, sc: newScratch(file), free: free, stop: stop}
			for {
				select {
				case slots <- struct{}{}:
				case <-stop:
					return
				}
				p := int(claimed.Add(1) - 1)
				if p >= len(parts) {
					<-slots
					return
				}
				errs[p] = w.merge(ctx, handles, split, p, parts[p])
				close(parts[p])
				if errs[p] != nil {
					return
				}
			}
		}()
	}
	for p, part := range parts {
		for block := range part {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := dst.Write(block); err != nil {
				return err
			}
			select {
			case free <- block:
			default: // free holds maxBlocks; a block beyond that is garbage
			}
		}
		if errs[p] != nil {
			return errs[p]
		}
		<-slots
	}
	return nil
}

// splitters cuts the merged order of handles into parts of about
// partKeys keys. The sample is every fenceKeys-th key of every run (a
// spill segment's fences), so sample rank r sits near merged rank
// r·fenceKeys. Part p of the result holds the keys in
// (split[p−1], split[p]]; equal splitters leave the parts between them
// empty.
func splitters(handles []runHandle, partKeys int) []Key {
	total := 0
	for _, h := range handles {
		total += h.keys()
	}
	parts := (total + partKeys - 1) / partKeys
	if parts <= 1 {
		return nil
	}
	sample := make([]Key, 0, total/fenceKeys+len(handles))
	for _, h := range handles {
		if h.mem == nil {
			sample = append(sample, h.fences...)
			continue
		}
		for i := 0; i < len(h.mem); i += fenceKeys {
			sample = append(sample, h.mem[i])
		}
	}
	slices.Sort(sample)
	split := make([]Key, parts-1)
	for i := range split {
		split[i] = sample[(i+1)*len(sample)/parts]
	}
	return split
}

// partWorker is one final-pass merge goroutine.
type partWorker struct {
	fm    *finalMerge
	sc    *scratch
	free  chan []Key
	stop  <-chan struct{}
	block []Key       // the block it fills next
	runs  []runHandle // the current partition's slices of the runs
}

// merge merges partition p of handles into out.
func (w *partWorker) merge(ctx context.Context, handles []runHandle, split []Key, p int, out chan<- []Key) error {
	w.runs = w.runs[:0]
	for _, h := range handles {
		lo, hi := 0, h.keys()
		var err error
		if p > 0 {
			if lo, err = w.sc.upperBound(h, split[p-1]); err != nil {
				return err
			}
		}
		if p < len(split) {
			if hi, err = w.sc.upperBound(h, split[p]); err != nil {
				return err
			}
		}
		if lo < hi {
			w.runs = append(w.runs, h.slice(lo, hi))
		}
	}
	if len(w.runs) == 0 {
		return nil
	}
	if w.block == nil {
		w.block = w.fm.newBlock(w.free)
	}
	emit := func(b []Key) ([]Key, error) {
		select {
		case out <- b:
			return w.fm.newBlock(w.free), nil
		case <-w.stop:
			return nil, errStopped
		}
	}
	var err error
	w.block, err = drain(ctx, newLoserTree(w.runs, w.sc), w.block, emit)
	return err
}

// newBlock takes a free output block, allocating one only when none is.
func (fm *finalMerge) newBlock(free chan []Key) []Key {
	select {
	case b := <-free:
		return b
	default:
		fm.made.Add(1)
		return make([]Key, 0, outBlockKeys)
	}
}

// slice returns the run's keys [lo, hi).
func (h runHandle) slice(lo, hi int) runHandle {
	if h.mem != nil {
		return runHandle{mem: h.mem[lo:hi]}
	}
	return runHandle{off: h.off + int64(lo)*keyBytes, count: hi - lo}
}

// drain pops the tree dry in blocks of cap(block) keys, checking the
// context between blocks, and hands each block to emit, which returns
// the block to fill next; drain returns the block it is left holding.
// It is the loop of every merge, final or intermediate.
func drain(ctx context.Context, lt *loserTree, block []Key, emit func([]Key) ([]Key, error)) ([]Key, error) {
	for {
		block = block[:0]
		for len(block) < cap(block) {
			k, ok := lt.pop()
			if !ok {
				break
			}
			block = append(block, k)
		}
		full := len(block) == cap(block)
		if err := lt.fail(); err != nil {
			return block, err
		}
		if len(block) > 0 {
			if err := ctx.Err(); err != nil {
				return block, err
			}
			var err error
			if block, err = emit(block); err != nil {
				return block, err
			}
		}
		if !full {
			return block, nil
		}
	}
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

// loserTree is the tournament a merge runs. Leaves are run cursors
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

// newLoserTree opens a cursor per handle through sc and plays the
// initial matches.
func newLoserTree(handles []runHandle, sc *scratch) *loserTree {
	n := len(handles)
	cursors := make([]cursor, n)
	for i, h := range handles {
		cursors[i] = sc.cursor(i, h)
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
