package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"productsort"
)

// maxMergePasses is the derived fan-in's contract: at the default
// memory budget no sweep size needs a third merge pass.
const maxMergePasses = 2

// extsortEntry is one input-size cell: the streaming tier's wall clock
// and throughput next to slices.Sort and sort.Slice baselines over the
// same keys.
type extsortEntry struct {
	Keys int `json:"keys"`
	// FanIn is the widest merge the tier ran; it and RunSize, Runs,
	// MergePasses and SpilledBytes come from extsort.Stats.
	FanIn        int   `json:"fanIn"`
	RunSize      int   `json:"runSize"`
	Runs         int64 `json:"runs"`
	MergePasses  int   `json:"mergePasses"`
	SpilledBytes int64 `json:"spilledBytes"`
	// StreamNs is SortStream end to end at the host's GOMAXPROCS and
	// Stream1Ns at GOMAXPROCS 1; SlicesSortNs is slices.Sort and
	// BaselineNs sort.Slice, each on its own copy of the input (both
	// run on one core whatever GOMAXPROCS is).
	StreamNs     int64 `json:"streamNs"`
	Stream1Ns    int64 `json:"stream1Ns"`
	SlicesSortNs int64 `json:"slicesSortNs"`
	BaselineNs   int64 `json:"baselineNs"`
	// The derived throughputs. SlicesSortRatio and Ratio are the
	// stream's throughput over slices.Sort's and sort.Slice's (>1
	// means the stream wins); SlicesSortRatio1 is the stream's at
	// GOMAXPROCS 1 over slices.Sort's.
	StreamKeysPerSec     float64 `json:"streamKeysPerSec"`
	Stream1KeysPerSec    float64 `json:"stream1KeysPerSec"`
	SlicesSortKeysPerSec float64 `json:"slicesSortKeysPerSec"`
	BaselineKeysPerSec   float64 `json:"baselineKeysPerSec"`
	SlicesSortRatio      float64 `json:"slicesSortRatio"`
	SlicesSortRatio1     float64 `json:"slicesSortRatio1"`
	Ratio                float64 `json:"ratio"`
}

// extsortReport is the BENCH_extsort.json document: a size sweep at
// the default StreamConfig, the stream timed at the host's GOMAXPROCS
// (Host.GOMAXPROCS) and at 1.
type extsortReport struct {
	Generated string         `json:"generated"`
	Host      benchHost      `json:"host"`
	Network   string         `json:"network"`
	Nodes     int            `json:"nodes"`
	SizeSweep []extsortEntry `json:"sizeSweep"`
}

// runExtsortBench measures the streaming external sort tier (certified
// run formation + loser-tree merge) against slices.Sort and sort.Slice
// and writes the report to path. Every streamed output is verified
// sorted with the right key count before its numbers are recorded, and
// the run fails, after writing the report, if any cell took more than
// maxMergePasses merge passes.
func runExtsortBench(path, sizesCSV string, seed int64) error {
	sizes, err := parseInts("extsortsizes", sizesCSV)
	if err != nil {
		return err
	}
	nw, err := productsort.Hypercube(10)
	if err != nil {
		return err
	}
	c, err := productsort.Compile(nw)
	if err != nil {
		return err
	}
	rep := extsortReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Host:      hostInfo(),
		Network:   nw.Name(),
		Nodes:     nw.Nodes(),
	}
	fmt.Printf("extsort bench: %s (%d nodes)\n", rep.Network, rep.Nodes)

	// One untimed sort first, so the first cell's stream does not pay
	// the program's lazy set-up and the heap's first growth.
	if _, _, err := timeStream(c, make([]productsort.Key, 10_000)); err != nil {
		return err
	}
	var over []int
	for _, n := range sizes {
		e, err := extsortCell(c, n, seed)
		if err != nil {
			return err
		}
		rep.SizeSweep = append(rep.SizeSweep, e)
		fmt.Printf("  size %9d: stream %8.0f keys/s (1 proc %8.0f), slices.Sort %8.0f keys/s (x%.2f, 1 proc x%.2f), sort.Slice %8.0f keys/s (x%.2f), %d runs, fan-in %d, %d merge passes\n",
			n, e.StreamKeysPerSec, e.Stream1KeysPerSec, e.SlicesSortKeysPerSec, e.SlicesSortRatio, e.SlicesSortRatio1, e.BaselineKeysPerSec, e.Ratio, e.Runs, e.FanIn, e.MergePasses)
		if e.MergePasses > maxMergePasses {
			over = append(over, n)
		}
	}
	if err := writeJSONArtifact(path, &rep); err != nil {
		return err
	}
	if len(over) > 0 {
		return fmt.Errorf("extsort bench: sizes %v took more than %d merge passes", over, maxMergePasses)
	}
	return nil
}

// extsortCell runs one measurement: n keys through SortStream with the
// default StreamConfig at the host's GOMAXPROCS and at 1, then
// slices.Sort and sort.Slice over copies.
func extsortCell(c *productsort.CompiledNetwork, n int, seed int64) (extsortEntry, error) {
	if n < 1 {
		return extsortEntry{}, fmt.Errorf("extsort bench: size %d < 1", n)
	}
	rng := rand.New(rand.NewSource(seed + int64(n)))
	keys := make([]productsort.Key, n)
	for i := range keys {
		keys[i] = productsort.Key(rng.Int63() - 1<<62)
	}

	stats, streamNs, err := timeStream(c, keys)
	if err != nil {
		return extsortEntry{}, err
	}
	prev := runtime.GOMAXPROCS(1)
	_, stream1Ns, err := timeStream(c, keys)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return extsortEntry{}, err
	}

	base := slices.Clone(keys)
	start := time.Now()
	slices.Sort(base)
	slicesNs := time.Since(start).Nanoseconds()

	copy(base, keys)
	start = time.Now()
	sort.Slice(base, func(i, j int) bool { return base[i] < base[j] })
	baseNs := time.Since(start).Nanoseconds()

	perSec := func(ns int64) float64 { return float64(n) / (float64(ns) / 1e9) }
	return extsortEntry{
		Keys:                 n,
		FanIn:                stats.MaxFanIn,
		RunSize:              stats.RunSize,
		Runs:                 stats.Runs,
		MergePasses:          stats.MergePasses,
		SpilledBytes:         stats.SpilledBytes,
		StreamNs:             streamNs,
		Stream1Ns:            stream1Ns,
		SlicesSortNs:         slicesNs,
		BaselineNs:           baseNs,
		StreamKeysPerSec:     perSec(streamNs),
		Stream1KeysPerSec:    perSec(stream1Ns),
		SlicesSortKeysPerSec: perSec(slicesNs),
		BaselineKeysPerSec:   perSec(baseNs),
		SlicesSortRatio:      float64(slicesNs) / float64(streamNs),
		SlicesSortRatio1:     float64(slicesNs) / float64(stream1Ns),
		Ratio:                float64(baseNs) / float64(streamNs),
	}, nil
}

// timeStream sorts keys through SortStreamKeys with the default
// StreamConfig, checks the output is sorted and complete, and returns
// the stats and the wall time.
func timeStream(c *productsort.CompiledNetwork, keys []productsort.Key) (*productsort.StreamStats, int64, error) {
	n := len(keys)
	start := time.Now()
	got, stats, err := c.SortStreamKeys(context.Background(), keys, productsort.StreamConfig{})
	ns := time.Since(start).Nanoseconds()
	if err != nil {
		return nil, 0, fmt.Errorf("extsort bench: SortStream(n=%d): %w", n, err)
	}
	if len(got) != n || !slices.IsSorted(got) {
		return nil, 0, fmt.Errorf("extsort bench: SortStream(n=%d) output unsorted or truncated (%d keys)", n, len(got))
	}
	return stats, ns, nil
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("extsort bench: bad -%s entry %q", flagName, part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("extsort bench: -%s is empty", flagName)
	}
	return out, nil
}
