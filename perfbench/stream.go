package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"productsort"
	"productsort/internal/extsort"
	"productsort/internal/schedule"
	"productsort/internal/sort2d"
	"productsort/internal/workload"
)

const (
	// streamKeys is the stream-4m input length.
	streamKeys = 4_000_000
	// streamDims makes the run sorter Hypercube(10): 1024-key runs.
	streamDims = 10
	// streamRunBatch is extsort's default RunBatch, the kernel width the
	// stream's run formation replays at.
	streamRunBatch = 16
	// streamSetups is how many cold compiles a stream run times;
	// setup_s is their median.
	streamSetups = 11
	// streamWindow is how many consecutive sorts make one window: the
	// latency percentiles are medians over windows of each window's
	// nearest-rank percentile (its middle and its slowest sort), so one
	// sort slowed by the shared host moves one window, not the result.
	streamWindow = 3
	// stageTolerance bounds how far a traced sort's stages may sum from
	// its wall time, as a share of the wall time.
	stageTolerance = 0.05
)

// streamInput is the stream-4m input: uniform keys from seed.
func streamInput(seed int64) []productsort.Key { return workload.Uniform(streamKeys, seed) }

// compileStream builds the stream's network cold, through the root API,
// and returns it with the compile time.
func compileStream() (*productsort.CompiledNetwork, time.Duration, error) {
	schedule.ResetCache()
	t0 := time.Now()
	nw, err := productsort.Hypercube(streamDims)
	if err != nil {
		return nil, 0, err
	}
	cn, err := productsort.Compile(nw)
	return cn, time.Since(t0), err
}

// runStream sorts the input back to back through
// CompiledNetwork.SortStreamKeys with the default StreamConfig until
// the run's seconds are spent. A traced run alternates untraced sorts
// with traced ones that call extsort.Sort directly with a timed Reader,
// run sorter and Writer, and needs at least one of each.
func runStream(cfg runConfig) (*report, error) {
	keys := streamInput(cfg.seed)
	want := slices.Clone(keys)
	slices.Sort(want)

	var cn *productsort.CompiledNetwork
	var setups []time.Duration
	for range streamSetups {
		c, d, err := compileStream()
		if err != nil {
			return nil, err
		}
		cn, setups = c, append(setups, d)
	}
	engine, err := sort2d.ByName("auto")
	if err != nil {
		return nil, err
	}
	var l *streamLayers
	if cfg.trace {
		l = &streamLayers{tr: newTracer()}
		if l.prog, err = k2_10Program(engine); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	budget := time.Duration(cfg.seconds) * time.Second
	var plain, traced []time.Duration
	var timed time.Duration
	failed, wrong := 0, 0
	for i := 0; timed < budget || (cfg.trace && i < 2); i++ {
		var out []productsort.Key
		var d time.Duration
		var err error
		if l != nil && i%2 == 1 {
			out, d, err = l.sort(keys)
		} else {
			t0 := time.Now()
			out, _, err = cn.SortStreamKeys(context.Background(), keys, productsort.StreamConfig{})
			d = time.Since(t0)
		}
		timed += d
		switch {
		case err != nil:
			failed++
		case !slices.Equal(out, want):
			failed++
			wrong++
		case l != nil && i%2 == 1:
			traced = append(traced, d)
		default:
			plain = append(plain, d)
		}
		out = nil
		runtime.GC()
	}
	ops := len(plain) + len(traced) + failed
	rep := &report{
		correct:   wrong == 0,
		attempted: ops,
		failed:    failed,
		values:    map[string]float64{},
		details: map[string]any{
			"keys": streamKeys, "network": fmt.Sprintf("hypercube dimension %d", streamDims),
			"sorts": ops, "setup_s_each": durSeconds(setups), "sort_s_each": durSeconds(plain),
		},
	}
	if len(plain) == 0 {
		return nil, fmt.Errorf("no untraced sort succeeded (%d failed)", failed)
	}
	if !cfg.trace {
		var total time.Duration
		var p50, p99 []float64
		for w := 0; w == 0 || w+streamWindow <= len(plain); w += streamWindow {
			win := make([]float64, 0, streamWindow)
			for _, d := range plain[w:min(w+streamWindow, len(plain))] {
				win = append(win, ms(d))
			}
			slices.Sort(win)
			p50 = append(p50, percentile(win, 50))
			p99 = append(p99, percentile(win, 99))
		}
		for _, d := range plain {
			total += d
		}
		rep.values["setup_s"] = durMedian(setups)
		rep.values["latency_p50_ms"] = median(p50)
		rep.values["latency_p99_ms"] = median(p99)
		rep.values["ops_per_s"] = float64(len(plain)) / total.Seconds()
		rep.values["keys_per_s"] = float64(len(plain)*streamKeys) / total.Seconds()
		rep.details["latency_samples"] = len(plain)
		rep.details["window_p50_ms"] = p50
		rep.details["window_p99_ms"] = p99
		rep.details["p99_reportable"] = reportable(99, len(plain))
		return rep, nil
	}
	if l.err != nil {
		return nil, l.err
	}
	if len(traced) == 0 {
		return nil, fmt.Errorf("no traced sort succeeded (%d failed)", failed)
	}
	if err := l.finish(rep, keys, setups, plain, traced); err != nil {
		return nil, err
	}
	return rep, nil
}

// streamLayers times traced sorts from outside extsort.Sort: the
// Reader, the run sorter and the Writer it is handed are wrapped, and
// the merge is Stats.MergeNs minus the writes inside it.
type streamLayers struct {
	tr    *tracer
	prog  *schedule.Program
	sorts int64 // traced sorts started; the current one is sorts-1
	root  int   // the current sort's root span

	read, runsort, spill, write, merge []float64 // ms per traced sort
	stats                              extsort.Stats
	allocBytes, gcCycles, gcNs         uint64
	err                                error // the first stage-sum check that failed
}

// sort runs one traced sort of keys with extsort's defaults — the
// configuration SortStreamKeys passes for a zero StreamConfig — and
// records in l.err if its stages do not add up to its wall time.
func (l *streamLayers) sort(keys []productsort.Key) ([]productsort.Key, time.Duration, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st, wall, out, err := l.tracedSort(keys, extsort.Config{})
	runtime.ReadMemStats(&m1)
	l.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	l.gcCycles += uint64(m1.NumGC - m0.NumGC)
	l.gcNs += m1.PauseTotalNs - m0.PauseTotalNs
	if err != nil {
		return nil, wall, err
	}
	l.stats = st.stats
	l.read = append(l.read, ms(st.read.acc))
	l.runsort = append(l.runsort, ms(st.runsort.acc))
	l.spill = append(l.spill, ms(st.spill.acc))
	l.write = append(l.write, ms(st.write.acc))
	l.merge = append(l.merge, ms(st.merge()))
	if err := st.check(wall); err != nil && l.err == nil {
		l.err = err
	}
	return out, wall, nil
}

// stageClock accumulates one stage's time over a traced sort and
// records a span for every call.
type stageClock struct {
	name string
	acc  time.Duration
	l    *streamLayers
}

// stop ends a call that started at start, and returns the end.
func (c *stageClock) stop(start time.Time) time.Time {
	end := time.Now()
	c.span(start, end)
	return end
}

// span adds the interval [start, end] to the stage.
func (c *stageClock) span(start, end time.Time) {
	c.acc += end.Sub(start)
	c.l.tr.add(c.name, c.l.root, c.l.sorts-1, c.l.tr.since(start), c.l.tr.since(end))
}

// streamStages is one traced sort's stage clocks and extsort's stats.
// During run formation, the interval from a run batch's sort to the
// next read is the batch's hand-off to the run store, which writes
// the runs past the memory budget to the spill file: the spill stage.
type streamStages struct {
	read, runsort, spill, write stageClock
	stats                       extsort.Stats
	sorted                      time.Time // end of the last run sort not yet followed by a read
}

// merge is the merge's own time: Stats.MergeNs minus the Writer calls
// made inside it. Spill I/O during merge passes stays inside it.
func (s *streamStages) merge() time.Duration {
	return time.Duration(s.stats.MergeNs) - s.write.acc
}

// check fails when the stages do not add up to within stageTolerance of
// the sort's wall time.
func (s *streamStages) check(wall time.Duration) error {
	sum := s.read.acc + s.runsort.acc + s.spill.acc + s.merge() + s.write.acc
	if off := math.Abs(float64(sum-wall)) / float64(wall); off > stageTolerance {
		return fmt.Errorf("stream stages sum to %v, %.1f%% off the wall time %v", sum, 100*off, wall)
	}
	return nil
}

// tracedSort sorts keys through extsort.Sort with the stream's program,
// timing every call into the Reader, the run sorter and the Writer and
// recording each as a span under one root span for the sort. The merge
// span is placed to end with the sort, MergeNs long.
func (l *streamLayers) tracedSort(keys []productsort.Key, cfg extsort.Config) (*streamStages, time.Duration, []productsort.Key, error) {
	st := &streamStages{
		read:    stageClock{name: "extsort.read", l: l},
		runsort: stageClock{name: "extsort.runsort", l: l},
		spill:   stageClock{name: "extsort.spill_write", l: l},
		write:   stageClock{name: "extsort.write", l: l},
	}
	sink := extsort.NewSliceWriter()
	src := timedReader{extsort.NewSliceReader(keys), st}
	sorter := timedSorter{extsort.NewNetworkSorter(l.prog, 0), st}
	dst := timedWriter{sink, &st.write}
	l.sorts++
	t0 := time.Now()
	l.root = l.tr.add("stream.sort", -1, l.sorts-1, l.tr.since(t0), 0)
	stats, err := extsort.Sort(context.Background(), src, dst, sorter, cfg)
	end := time.Now()
	wall := end.Sub(t0)
	l.tr.spans[l.root].End = int64(l.tr.since(end))
	if err != nil {
		return nil, wall, nil, err
	}
	st.stats = *stats
	// The last batch's hand-off runs from its sort to the merge's start.
	mergeStart := end.Add(-time.Duration(stats.MergeNs))
	if !st.sorted.IsZero() && mergeStart.After(st.sorted) {
		st.spill.span(st.sorted, mergeStart)
	}
	l.tr.add("extsort.merge", l.root, l.sorts-1, l.tr.since(mergeStart), l.tr.since(end))
	return st, wall, sink.Keys(), nil
}

// timedReader, timedSorter and timedWriter forward to the wrapped
// stream endpoint and time every call on their stage clock.
type timedReader struct {
	extsort.Reader
	st *streamStages
}

func (t timedReader) Read(dst []productsort.Key) (int, error) {
	start := time.Now()
	if !t.st.sorted.IsZero() {
		t.st.spill.span(t.st.sorted, start)
		t.st.sorted = time.Time{}
	}
	defer t.st.read.stop(start)
	return t.Reader.Read(dst)
}

type timedSorter struct {
	extsort.RunSorter
	st *streamStages
}

func (t timedSorter) SortRuns(ctx context.Context, runs [][]productsort.Key) (err error) {
	start := time.Now()
	defer func() { t.st.sorted = t.st.runsort.stop(start) }()
	return t.RunSorter.SortRuns(ctx, runs)
}

type timedWriter struct {
	extsort.Writer
	clock *stageClock
}

func (t timedWriter) Write(keys []productsort.Key) error {
	defer t.clock.stop(time.Now())
	return t.Writer.Write(keys)
}

// finish fills rep with every per-layer metric of a traced stream run.
func (l *streamLayers) finish(rep *report, keys []productsort.Key, setups, plain, traced []time.Duration) error {
	v := rep.values
	for _, d := range perLayer {
		v[d.name] = 0 // the serving layers and the load generator are unused
	}
	v["extsort.read_ms"] = median(l.read)
	v["extsort.runsort_ms"] = median(l.runsort)
	v["extsort.spill_write_ms"] = median(l.spill)
	v["extsort.write_ms"] = median(l.write)
	v["extsort.merge_ms"] = median(l.merge)
	v["extsort.merge_passes"] = float64(l.stats.MergePasses)
	v["extsort.runs"] = float64(l.stats.Runs)
	v["extsort.spilled_mb"] = float64(l.stats.SpilledBytes) / (1 << 20)
	v["schedule.compile_ms"] = 1000 * durMedian(setups)
	k := kernelNsPerSet(l.prog, streamRunBatch, keys)
	v["schedule.cols_ns_per_set"] = k
	v["schedule.cols_ns_per_set.k2_10"] = k
	sorts := float64(len(l.read))
	v["go.alloc_bytes_per_op"] = float64(l.allocBytes) / sorts
	v["go.gc_cycles"] = float64(l.gcCycles)
	v["go.gc_pause_ms"] = float64(l.gcNs) / 1e6
	v["ref.slices_sort_keys_per_s"] = slicesSortKeysPerSec(keys)
	v["trace.overhead_pct"] = 100 * (durMedian(traced)/durMedian(plain) - 1)
	rep.spans = l.tr
	rep.details["traced_sort_s_each"] = durSeconds(traced)
	rep.details["untraced_sorts"] = len(plain)
	return nil
}
