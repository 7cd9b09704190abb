// Package extsort is the streaming external sort tier: it sorts key
// streams of unbounded length through the fixed-size certified sorting
// networks the rest of the repo compiles and proves.
//
// The shape is the classic run-formation-then-merge hybrid, with both
// halves grounded in the paper's machinery. Run formation chunks the
// stream into fixed-size runs and sorts each run through a certified
// compiled program — the columnar batch replay, with sentinel padding
// for the ragged tail exactly as THEORY.md §12 proves safe — so every
// run entering the merge is the output of a machine-certified sorting
// network. The merge is a loser-tree k-way merge, software's image of
// the paper's Section 3 multiway merge: at every step the tree holds
// the pairwise losers along the winner's path, so replacing the winner
// costs ⌈log₂ k⌉ comparisons, the same per-level compare-exchange
// cascade the network performs in hardware. The agglomeration law for
// sorting networks (arXiv 1701.00635) supplies the composition
// argument lifted into THEORY.md §15: certified runs plus a correct
// k-way merge compose into a provably correct sorter for any input
// length.
//
// Memory is bounded: sorted runs beyond the configured resident-key
// budget spill to a temp file (segments written to reserved ranges,
// positional segment reads) and intermediate merge passes stream
// spill-to-spill. The merge fan-in is derived, not configured: the
// widest merge whose read buffers fit the budget, narrowed to the
// fewest passes the run count needs (at most 2 up to 261,121 runs at
// the default budget), so peak residency is O(MemoryKeys) regardless
// of input length. The merge runs on every core: intermediate groups
// merge concurrently, and the final pass merges disjoint key-range
// partitions concurrently while the calling goroutine writes them in
// order; how many merges run at once, the partition size and the
// output in flight are derived from MemoryKeys and GOMAXPROCS, and
// the output and Stats do not depend on either. The whole pipeline is
// cancellable between stages via context and instrumented with
// extsort.* counters and per-stage and per-pass latency histograms.
package extsort

import (
	"context"
	"errors"
	"fmt"
	"time"

	"productsort/internal/obs"
	"productsort/internal/simnet"
)

// Key aliases the machine's key type.
type Key = simnet.Key

// Typed errors; branch with errors.Is.
var (
	// ErrRunUnsorted reports that a run came back from the run sorter
	// out of order (only checked when Config.VerifyRuns is set): the
	// merge refuses unsorted input rather than masking a run-sorter
	// bug with merge output that is wrong in subtler ways.
	ErrRunUnsorted = errors.New("extsort: run sorter produced an unsorted run")
	// ErrNilSorter rejects a Sort call without a run sorter.
	ErrNilSorter = errors.New("extsort: nil run sorter")
)

// ConfigError reports one invalid Config field by name.
type ConfigError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("extsort: config %s: %s", e.Field, e.Reason)
}

// RunSorter sorts fixed-size runs in place; the streaming tier is
// generic over it. The certified-network sorter (NewNetworkSorter) is
// the production implementation; the serve tier substitutes one that
// submits runs through the batching server, and tests substitute
// oracles and fault-injecting variants.
type RunSorter interface {
	// MaxRun returns the largest run length one SortRuns item may have.
	MaxRun() int
	// SortRuns sorts every run ascending, in place. Runs are
	// independent; an implementation may sort them together (batch
	// replay), concurrently, or one at a time. It must respect ctx.
	SortRuns(ctx context.Context, runs [][]Key) error
}

// Config parametrizes Sort. The zero value of every field selects a
// sensible default. The run size, the run batch and the merge fan-in
// are not settable: the first two are constants (maxRunSize, runBatch)
// and the fan-in is derived from the run count and MemoryKeys
// (mergeWidth).
type Config struct {
	// MemoryKeys bounds resident sorted keys: runs beyond it spill to
	// disk (default 1<<21 keys = 16 MiB; min 3·spillBufKeys, the
	// buffers of a binary merge). It also bounds the merge fan-in.
	MemoryKeys int
	// SpillDir is where the spill file lives (default os.TempDir()).
	SpillDir string
	// VerifyRuns, when set, checks every run for sortedness before it
	// enters the merge and fails with ErrRunUnsorted — the runtime
	// form of the battery's run-independence property, and the guard
	// the chaos leg leans on when the run sorter heals itself under
	// injected faults.
	VerifyRuns bool
	// Metrics optionally receives the extsort.* instruments.
	Metrics *obs.Metrics
}

// Stats reports one Sort's accounting.
type Stats struct {
	// Keys is the total number of keys sorted.
	Keys int64 `json:"keys"`
	// Runs is the number of runs formed (the merge's leaf count).
	Runs int64 `json:"runs"`
	// RunSize is the key count per run; FanIn is the merge width
	// derived from Runs and MemoryKeys (mergeWidth).
	RunSize int `json:"runSize"`
	FanIn   int `json:"fanIn"`
	// MergePasses counts merge passes: 1 while Runs fits the budget's
	// widest merge, and at most 2 up to that width squared.
	MergePasses int `json:"mergePasses"`
	// MaxFanIn is the widest fan-in any single merge used.
	MaxFanIn int `json:"maxFanIn"`
	// SpilledRuns and SpilledBytes account the disk traffic: runs (or
	// intermediate merged runs) written to the spill file and the bytes
	// they cost.
	SpilledRuns  int64 `json:"spilledRuns"`
	SpilledBytes int64 `json:"spilledBytes"`
	// RunFormNs, RunSortNs and MergeNs split wall time between reading
	// the stream into runs, sorting the runs, and merging them.
	RunFormNs int64 `json:"runFormNs"`
	RunSortNs int64 `json:"runSortNs"`
	MergeNs   int64 `json:"mergeNs"`
	// MergePassNs is each merge pass's wall time, in pass order; the
	// last entry is the final pass, which includes the sink's writes.
	MergePassNs []int64 `json:"mergePassNs"`
}

// metrics bundles the extsort.* instruments; all nil when no registry
// is configured.
type metrics struct {
	keys, runs  *obs.Counter
	spillRuns   *obs.Counter
	spillBytes  *obs.Counter
	mergePasses *obs.Counter
	fanIn       *obs.Histogram
	runSortNs   *obs.Histogram
	mergeNs     *obs.Histogram
	passNs      *obs.Histogram
	runFormNs   *obs.Histogram
}

// FanInBuckets is the histogram layout for realized merge fan-ins, up
// to the default budget's widest merge (511).
var FanInBuckets = []int64{2, 4, 8, 16, 32, 64, 128, 256, 512}

func newMetrics(m *obs.Metrics) *metrics {
	if m == nil {
		return nil
	}
	return &metrics{
		keys:        m.Counter("extsort.keys"),
		runs:        m.Counter("extsort.runs"),
		spillRuns:   m.Counter("extsort.spill.runs"),
		spillBytes:  m.Counter("extsort.spill.bytes"),
		mergePasses: m.Counter("extsort.merge.passes"),
		fanIn:       m.Histogram("extsort.merge.fanin", FanInBuckets),
		runSortNs:   m.Histogram("extsort.runsort_ns", obs.DurationBucketsNs),
		mergeNs:     m.Histogram("extsort.merge_ns", obs.DurationBucketsNs),
		passNs:      m.Histogram("extsort.merge.pass_ns", obs.DurationBucketsNs),
		runFormNs:   m.Histogram("extsort.runform_ns", obs.DurationBucketsNs),
	}
}

const (
	// maxRunSize caps the run length: large enough to amortize the
	// merge, small enough that the planner maps it to a mid-size
	// certified network. Runs are min(maxRunSize, sorter.MaxRun()).
	maxRunSize = 1024
	// runBatch is how many formed runs accumulate before one SortRuns
	// call — the batch the columnar replay amortizes its program walk
	// over, and on the serve path the runs in flight at once.
	runBatch = 16
	// defaultMemoryKeys is MemoryKeys when unset (16 MiB of keys).
	defaultMemoryKeys = 1 << 21
)

// normalize validates cfg against the sorter and fills defaults.
func (cfg Config) normalize(sorter RunSorter) (Config, error) {
	if sorter == nil {
		return cfg, ErrNilSorter
	}
	if maxRun := sorter.MaxRun(); maxRun < 1 {
		return cfg, &ConfigError{Field: "RunSorter", Reason: fmt.Sprintf("MaxRun %d < 1", maxRun)}
	}
	if cfg.MemoryKeys < 0 {
		return cfg, &ConfigError{Field: "MemoryKeys", Reason: fmt.Sprintf("negative value %d", cfg.MemoryKeys)}
	}
	if cfg.MemoryKeys == 0 {
		cfg.MemoryKeys = defaultMemoryKeys
	}
	// A merge needs one read buffer per input plus the output block;
	// below a binary merge's three buffers spilling would thrash.
	cfg.MemoryKeys = max(cfg.MemoryKeys, 3*spillBufKeys)
	return cfg, nil
}

// Sort drains src, sorts it, and writes the fully sorted sequence to
// dst. It returns the run/merge/spill accounting, or the first error
// from the source, the sink, the run sorter, or the context. On error
// (including cancellation) every spill file and pooled buffer is
// released before returning; dst may have received a sorted prefix.
func Sort(ctx context.Context, src Reader, dst Writer, sorter RunSorter, cfg Config) (*Stats, error) {
	cfg, err := cfg.normalize(sorter)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	met := newMetrics(cfg.Metrics)
	stats := &Stats{RunSize: min(maxRunSize, sorter.MaxRun())}

	store := newRunStore(cfg.SpillDir, cfg.MemoryKeys, stats, met)
	defer store.close()

	if err := formRuns(ctx, src, sorter, cfg, store, stats, met); err != nil {
		return stats, err
	}
	if met != nil {
		met.keys.Add(stats.Keys)
		met.runs.Add(stats.Runs)
	}
	if err := mergeRuns(ctx, store, dst, cfg, stats, met); err != nil {
		return stats, err
	}
	return stats, nil
}

// formRuns chunks src into stats.RunSize runs, sorts them runBatch at
// a time through the run sorter, optionally verifies each, and hands
// them to the store (which keeps them resident or spills them under
// the memory budget).
func formRuns(ctx context.Context, src Reader, sorter RunSorter, cfg Config, store *runStore, stats *Stats, met *metrics) error {
	batch := make([][]Key, 0, runBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		t0 := time.Now()
		if err := sorter.SortRuns(ctx, batch); err != nil {
			return err
		}
		d := time.Since(t0).Nanoseconds()
		stats.RunSortNs += d
		if met != nil {
			met.runSortNs.Observe(d)
		}
		for _, run := range batch {
			if cfg.VerifyRuns && !sortedKeys(run) {
				return fmt.Errorf("%w (run of %d keys)", ErrRunUnsorted, len(run))
			}
			if err := store.add(run); err != nil {
				return err
			}
		}
		batch = batch[:0]
		return nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		run, err := readRun(src, stats.RunSize)
		d := time.Since(t0).Nanoseconds()
		stats.RunFormNs += d
		if met != nil && len(run) > 0 {
			met.runFormNs.Observe(d)
		}
		if len(run) > 0 {
			stats.Keys += int64(len(run))
			stats.Runs++
			batch = append(batch, run)
			if len(batch) == runBatch {
				if ferr := flush(); ferr != nil {
					return ferr
				}
			}
		}
		if err != nil {
			if errors.Is(err, errEOF) {
				return flush()
			}
			return err
		}
	}
}

// sortedKeys reports whether keys are nondecreasing.
func sortedKeys(keys []Key) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}
