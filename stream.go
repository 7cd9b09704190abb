// Streaming external sort: the public face of internal/extsort. A
// compiled network (or the batching server) becomes the run sorter of
// a run-formation-then-merge pipeline that sorts key streams of any
// length — chunk the stream into runs, sort each run through a
// certified fixed-size network (sentinel padding for the ragged tail,
// THEORY.md §12), loser-tree k-way merge the runs (the paper's Section
// 3 multiway merge in software, on every core), spilling past the
// memory budget to disk. THEORY.md §15 gives the agglomeration
// argument: certified runs plus a correct k-way merge compose into a
// provably correct sorter for unbounded inputs.

package productsort

import (
	"context"

	"productsort/internal/extsort"
)

// KeyReader is the streaming sort's source: io.Reader semantics over
// keys (fill a prefix of dst, return the count, io.EOF at the end).
type KeyReader = extsort.Reader

// KeyWriter is the streaming sort's sink: sorted blocks arrive in
// order; the slice is reused between calls.
type KeyWriter = extsort.Writer

// StreamStats reports one streaming sort's accounting: keys, runs,
// merge passes and fan-in, spill traffic, and per-stage wall time.
type StreamStats = extsort.Stats

// ErrRunUnsorted is returned (wrapped) when StreamConfig.VerifyRuns
// catches a run entering the merge out of order.
var ErrRunUnsorted = extsort.ErrRunUnsorted

// NewKeysReader streams an in-memory slice (the slice is only read).
func NewKeysReader(keys []Key) KeyReader { return extsort.NewSliceReader(keys) }

// NewKeysWriter returns an in-memory sink; call Keys for the result.
func NewKeysWriter() *extsort.SliceWriter { return extsort.NewSliceWriter() }

// StreamConfig parametrizes SortStream and Server.SubmitStream. The
// zero value of every field selects a sensible default. The run size
// is min(1024, the run sorter's ceiling — the network's node count for
// SortStream, the largest serving network for SubmitStream), and the
// merge fan-in is derived from the run count and MemoryKeys: one pass
// while every run's read buffer fits the budget, at most two passes up
// to that width squared.
type StreamConfig struct {
	// MemoryKeys bounds resident sorted keys; runs beyond it spill to
	// disk (default 1<<21 keys = 16 MiB, at least a binary merge's
	// buffers). It also bounds the merge fan-in: 511 at the default.
	MemoryKeys int
	// SpillDir hosts the (immediately unlinked) spill file (default
	// os.TempDir()).
	SpillDir string
	// VerifyRuns re-checks every run's sortedness before the merge and
	// fails with ErrRunUnsorted — the belt under run sorters that heal
	// themselves, like SortResilient under fault injection.
	VerifyRuns bool
}

// extsortConfig is the one conversion both entry points share.
func (cfg StreamConfig) extsortConfig() extsort.Config {
	return extsort.Config{MemoryKeys: cfg.MemoryKeys, SpillDir: cfg.SpillDir, VerifyRuns: cfg.VerifyRuns}
}

// SortStream sorts the key stream src into dst through this compiled
// network: runs of up to 1024 keys (at most the network's node count)
// are sorted by the network's certified batch replay and merged with a
// loser-tree k-way merge. Cancellable via ctx between stages;
// on error dst may hold a sorted prefix. Safe for concurrent use —
// each call owns its run and merge state.
func (c *CompiledNetwork) SortStream(ctx context.Context, src KeyReader, dst KeyWriter, cfg StreamConfig) (*StreamStats, error) {
	sorter := extsort.NewNetworkSorter(c.prog, 0)
	return extsort.Sort(ctx, src, dst, sorter, cfg.extsortConfig())
}

// SortStreamKeys is the in-memory convenience: sort keys of any length
// through the streaming tier and return a fresh sorted slice.
func (c *CompiledNetwork) SortStreamKeys(ctx context.Context, keys []Key, cfg StreamConfig) ([]Key, *StreamStats, error) {
	out := make(keySink, 0, len(keys))
	stats, err := c.SortStream(ctx, NewKeysReader(keys), &out, cfg)
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// keySink collects SortStreamKeys' output into a slice sized once to
// the input, so the output is never regrown and copied.
type keySink []Key

// Write implements KeyWriter.
func (s *keySink) Write(keys []Key) error {
	*s = append(*s, keys...)
	return nil
}

// SubmitStream is the server's large-request lane: it sorts a key
// stream of any length by chunking it into runs that ride the normal
// admission/batching path — each run maps to the cheapest covering
// certified network and batches with concurrent point traffic — then
// k-way merging the sorted runs. Where Submit sheds oversized requests
// with ErrRequestTooLarge and overload with ErrQueueFull, SubmitStream
// degrades to run-at-a-time admission: any length is accepted, and
// queue-full inside the lane becomes backoff-and-resubmit. The merge
// runs on every core, so it shares them with point traffic while it
// lasts. The extsort.* instruments land in the server's metrics
// registry.
func (s *Server) SubmitStream(ctx context.Context, src KeyReader, dst KeyWriter, cfg StreamConfig) (*StreamStats, error) {
	return s.s.SubmitStream(ctx, src, dst, cfg.extsortConfig())
}
