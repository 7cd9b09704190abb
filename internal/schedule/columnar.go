// Columnar batch replay: the only batch replay path.
//
// ExecBackend.Run walks the program once per key set; RunBatchColumnar
// walks it once per *batch*. The batch is transposed into a ColumnBatch
// — one contiguous column per snake position, holding that position's
// key from every set — and the program's pre-lowered comparator stream
// (Program.LoweredComparators) runs each compare-exchange as a tight
// branchless min/max loop over two columns (kernel.go). Because every
// set replays the identical oblivious schedule, interleaving them this
// way only permutes the order of data-independent comparators across
// independent sets: each set still sees its own comparators in program
// order, so the transform commutes with sentinel padding and with the
// 0-1 certification argument (THEORY.md §13).

package schedule

import (
	"fmt"
	"runtime"
	"sync"

	"productsort/internal/simnet"
)

// ColumnBatch is the struct-of-arrays image of one batch: a single slab
// of nodes × width keys in which column pos — slab[pos*width :
// (pos+1)*width] — holds snake position pos of every set. Sets shorter
// than the network occupy a prefix of the columns they reach and
// Sentinel elsewhere.
type ColumnBatch struct {
	slab  []simnet.Key
	nodes int
	width int
}

// Reset shapes the batch for nodes snake positions and width sets,
// reusing the slab when it is large enough.
func (cb *ColumnBatch) Reset(nodes, width int) {
	n := nodes * width
	if cap(cb.slab) < n {
		cb.slab = make([]simnet.Key, n)
	}
	cb.slab = cb.slab[:n]
	cb.nodes = nodes
	cb.width = width
}

// Width returns the number of sets the batch holds.
func (cb *ColumnBatch) Width() int { return cb.width }

// Column returns snake position pos across all sets — read/write.
func (cb *ColumnBatch) Column(pos int) []simnet.Key {
	return cb.slab[pos*cb.width : (pos+1)*cb.width]
}

// LoadSnake transposes the snake-order sets into columns and pads every
// set's unreached positions with Sentinel. Set lengths must already be
// validated (0 < len ≤ nodes) and len(sets) must equal the width.
func (cb *ColumnBatch) LoadSnake(sets [][]simnet.Key) {
	w := cb.width
	for s, keys := range sets {
		for pos, k := range keys {
			cb.slab[pos*w+s] = k
		}
		for pos := len(keys); pos < cb.nodes; pos++ {
			cb.slab[pos*w+s] = Sentinel
		}
	}
}

// StoreSnake transposes each set's own snake prefix back out of the
// columns, dropping the sentinels that floated to the tail positions.
func (cb *ColumnBatch) StoreSnake(sets [][]simnet.Key) {
	w := cb.width
	for s, keys := range sets {
		for pos := range keys {
			keys[pos] = cb.slab[pos*w+s]
		}
	}
}

// Run replays the program's lowered comparator stream over the columns
// through the fastest kernel the host supports (AVX2 on capable amd64,
// the portable scalar loop elsewhere — see kernel.go/kernel_amd64.go).
func (cb *ColumnBatch) Run(prog *Program) {
	runComparators(cb.slab, prog.LoweredComparators(), cb.width)
}

// ColumnBuffer recycles ColumnBatch slabs across flushes, so a steady
// stream of batches through one topology allocates nothing per item
// (pinned by TestRunBatchColumnarZeroAlloc). The zero value is ready;
// one buffer may serve any number of concurrent RunBatchColumnar calls.
// Mixed shapes recycle too: a slab is reused whenever its capacity
// covers the requested nodes × width, and regrown otherwise.
type ColumnBuffer struct {
	pool sync.Pool // *ColumnBatch
}

// NewColumnBuffer returns an empty buffer.
func NewColumnBuffer() *ColumnBuffer { return &ColumnBuffer{} }

// get returns a pooled ColumnBatch shaped nodes × width.
func (bb *ColumnBuffer) get(nodes, width int) *ColumnBatch {
	cb, _ := bb.pool.Get().(*ColumnBatch)
	if cb == nil {
		cb = &ColumnBatch{}
	}
	cb.Reset(nodes, width)
	return cb
}

// put returns a ColumnBatch to the pool.
func (bb *ColumnBuffer) put(cb *ColumnBatch) { bb.pool.Put(cb) }

// minColumnarTile is the smallest per-worker set count worth the
// goroutine handoff: below it the transpose + kernel run faster inline
// than the fan-out costs.
const minColumnarTile = 8

// RunBatchColumnar sorts every key set of batch through one compiled
// program. Each set is given and returned in snake order and sorted in
// place; sets of any length 1..nodes are padded with Sentinel in
// scratch, never in the caller's slice, so one program serves every
// request size it covers — the agglomeration move the serving layer is
// built on. The batch is transposed into per-position columns and the
// program is walked once, each comparator sweeping all sets in a
// branchless min/max loop. workers < 1 selects GOMAXPROCS capped so
// every worker keeps at least minColumnarTile sets; workers > 1 split
// the batch into contiguous tiles, each with its own pooled slab
// (columns stay dense per tile, and tiles never share cache lines).
// buf (nil for a call-private one) recycles slabs across calls; the
// warm single-worker path allocates nothing per item.
func RunBatchColumnar(prog *Program, batch [][]simnet.Key, workers int, buf *ColumnBuffer) error {
	nodes := prog.net.Nodes()
	for i, keys := range batch {
		if len(keys) == 0 || len(keys) > nodes {
			return fmt.Errorf("schedule: batch[%d] has %d keys for %d nodes", i, len(keys), nodes)
		}
	}
	if len(batch) == 0 {
		return nil
	}
	if buf == nil {
		buf = NewColumnBuffer()
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if mw := (len(batch) + minColumnarTile - 1) / minColumnarTile; workers > mw {
		workers = mw
	}
	if workers <= 1 {
		columnarTile(prog, batch, buf)
		return nil
	}
	// Contiguous tiles of near-equal width, one goroutine each. The
	// buffer rides in as a goroutine argument, not a closure capture: a
	// captured-and-reassigned parameter would be moved to the heap at
	// function entry, costing the serial path one allocation per call.
	var wg sync.WaitGroup
	per := (len(batch) + workers - 1) / workers
	for lo := 0; lo < len(batch); lo += per {
		hi := lo + per
		if hi > len(batch) {
			hi = len(batch)
		}
		wg.Add(1)
		go func(tile [][]simnet.Key, pool *ColumnBuffer) {
			defer wg.Done()
			columnarTile(prog, tile, pool)
		}(batch[lo:hi], buf)
	}
	wg.Wait()
	return nil
}

// columnarTile runs one contiguous slice of the batch through a pooled
// slab: transpose in, replay the comparator stream, transpose out.
func columnarTile(prog *Program, sets [][]simnet.Key, buf *ColumnBuffer) {
	cb := buf.get(prog.net.Nodes(), len(sets))
	cb.LoadSnake(sets)
	cb.Run(prog)
	cb.StoreSnake(sets)
	buf.put(cb)
}
