package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"productsort"
	"productsort/internal/workload"
)

// serveSpec is one serving workload: an open loop (independent users)
// with Poisson arrivals and Zipf(zipfS) request sizes 1..maxKeys,
// against a root productsort.Server built with MaxKeys and Families.
type serveSpec struct {
	name     string
	rate     float64 // offered requests per second
	maxKeys  int
	families []string
	// window is the target length of one measured window. The run's
	// seconds are split into windows: outputs are verified and dropped
	// between them, outside the timed region. Each window holds enough
	// requests for its p99 to have ten samples beyond it. The run
	// reports the lowest window p50 and the lowest window p99: a stall
	// of the shared host moves only the windows it hits, and it only
	// ever adds latency, so the quietest window is the steadiest
	// reading of the program's own.
	window time.Duration
}

var serveSpecs = map[string]serveSpec{
	"serve-light": {name: "serve-light", rate: 2000, maxKeys: 64, window: 600 * time.Millisecond},
	"serve-heavy": {name: "serve-heavy", rate: 30000, maxKeys: 1024, window: time.Second / 4,
		families: []string{productsort.FamilyMultiway, productsort.FamilyPeriodic}},
}

const (
	zipfS = 1.2
	// poolKeys is the size of the key pool every request's keys are a
	// window of; Submit copies, so windows may overlap.
	poolKeys = 1 << 20
	// setupRounds is how many times a run builds and warms a server;
	// setup_s is their median.
	setupRounds = 21
)

// sreq is one generated request: due time from its window's start, and
// its keys as a window of the pool.
type sreq struct {
	due    time.Duration
	off, n int
}

// window is one measured stretch of the open loop.
type window struct {
	reqs []sreq
	dur  time.Duration
}

// outcome is what the load generator saw of one request. Times are
// offsets from the window's start.
type outcome struct {
	send, submitted, recv time.Duration
	rep                   productsort.SortedReply
	err                   error
}

// genServe builds the key pool and every window's requests from seed.
func genServe(spec serveSpec, seed int64, seconds int) ([]productsort.Key, []window) {
	pool := workload.Uniform(poolKeys, seed)
	nw := max(2, int(math.Round(float64(seconds)/spec.window.Seconds())))
	dur := time.Duration(float64(seconds) / float64(nw) * float64(time.Second))
	wins := make([]window, nw)
	limit := int(spec.rate*dur.Seconds()*1.5) + 64
	reqs := make([]sreq, 0, limit)
	for w := range wins {
		ws := seed*1_000_003 + int64(w)*7919
		gaps := workload.PoissonArrivals(limit, spec.rate, ws)
		sizes := workload.ZipfSizes(limit, 1, spec.maxKeys, zipfS, ws+1)
		rng := rand.New(rand.NewSource(ws + 2))
		var at time.Duration
		reqs = reqs[:0]
		for i := range gaps {
			at += gaps[i]
			if at >= dur {
				break
			}
			reqs = append(reqs, sreq{due: at, off: rng.Intn(poolKeys - sizes[i] + 1), n: sizes[i]})
		}
		// A clone holds no slack, so the inputs the run keeps live —
		// and the heap the collector lets grow around them — do not
		// depend on how far each window fell short of its limit.
		wins[w] = window{reqs: slices.Clone(reqs), dur: dur}
	}
	return pool, wins
}

// setupServer builds a server and warms every plan: one request of each
// size 1..MaxKeys, so every plan the planner can choose is compiled
// cold and has flushed before timing starts. It returns the set-up time
// and the number of warm-up replies that failed verification.
func setupServer(spec serveSpec, pool []productsort.Key) (*productsort.Server, time.Duration, int, error) {
	t0 := time.Now()
	srv, err := productsort.NewServer(productsort.ServerConfig{MaxKeys: spec.maxKeys, Families: spec.families})
	if err != nil {
		return nil, 0, 0, err
	}
	chans := make([]<-chan productsort.SortedReply, srv.MaxKeys())
	for i := range chans {
		ch, err := srv.Submit(context.Background(), pool[i:2*i+1])
		if err != nil {
			srv.Close(context.Background())
			return nil, 0, 0, fmt.Errorf("warm-up submit of %d keys: %w", i+1, err)
		}
		chans[i] = ch
	}
	reps := make([]productsort.SortedReply, len(chans))
	for i, ch := range chans {
		reps[i] = <-ch
	}
	d := time.Since(t0)
	bad := 0
	var want []productsort.Key
	for i, rep := range reps {
		if rep.Err != nil || !sortedPermutation(pool[i:2*i+1], rep.Keys, &want) {
			bad++
		}
	}
	return srv, d, bad, nil
}

// sortedPermutation reports whether got equals in sorted by slices.Sort;
// *buf is scratch reused across calls.
func sortedPermutation(in, got []productsort.Key, buf *[]productsort.Key) bool {
	*buf = append((*buf)[:0], in...)
	slices.Sort(*buf)
	return slices.Equal(*buf, got)
}

// runWindow drives one window open loop: a single sender submits each
// request at its due time, whatever the state of earlier ones, and each
// reply is awaited by its own goroutine that stamps its receipt. It
// returns every outcome and the window's length: its scheduled
// duration, or later if the last reply came after it.
func runWindow(srv *productsort.Server, pool []productsort.Key, win window, pace *pacer) ([]outcome, time.Time, time.Duration, error) {
	outs := make([]outcome, len(win.reqs))
	var wg sync.WaitGroup
	ctx := context.Background()
	start := time.Now()
	for i := range win.reqs {
		r := &win.reqs[i]
		o := &outs[i]
		if err := pace.sleep(r.due - time.Since(start)); err != nil {
			wg.Wait()
			return nil, start, 0, err
		}
		o.send = time.Since(start)
		ch, err := srv.Submit(ctx, pool[r.off:r.off+r.n])
		o.submitted = time.Since(start)
		if err != nil {
			o.err = err
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := <-ch
			o.recv = time.Since(start)
			o.rep = rep
		}()
	}
	wg.Wait()
	return outs, start, max(win.dur, time.Since(start)), nil
}

// serveStages splits one request's latency, from its due time to its
// receipt, into the four stages the traced run reports. They tile the
// interval exactly: the generator's lag (due to send), admission (the
// Submit call), residence in the server after Submit returned, and
// delivery (the rest, up to receipt). The server stamps Reply.Wait from
// inside Submit to the reply's send, so residence is Reply.Wait minus
// the Submit call (at least zero): it misses the part of Submit before
// the server's stamp, which delivery then carries.
func serveStages(due, send, submitted, recv, wait time.Duration) (lag, submit, resident, delivery time.Duration) {
	lag = send - due
	submit = submitted - send
	resident = max(0, wait-submit)
	delivery = recv - submitted - resident
	return
}

// serveTally accumulates one run's verified outcomes.
type serveTally struct {
	attempted, failed, wrong, shed int
	keys                           int64
	latMs                          []float64 // due to receipt; a failed request counts as taking its whole window
	p50, p99                       []float64 // per window
	elapsed                        time.Duration
}

// add verifies one window's outcomes and folds them in. It runs after
// the window, outside the timed region.
func (t *serveTally) add(pool []productsort.Key, win window, outs []outcome, elapsed time.Duration) error {
	var want []productsort.Key
	t.elapsed += elapsed
	first := len(t.latMs)
	defer func() {
		lat := slices.Clone(t.latMs[first:])
		slices.Sort(lat)
		t.p50 = append(t.p50, percentile(lat, 50))
		t.p99 = append(t.p99, percentile(lat, 99))
	}()
	for i, o := range outs {
		r := win.reqs[i]
		t.attempted++
		switch {
		case errors.Is(o.err, productsort.ErrQueueFull):
			t.failed++
			t.shed++
		case o.err != nil:
			return fmt.Errorf("submit of %d keys: %w", r.n, o.err)
		case o.rep.Err != nil:
			t.failed++
		case !sortedPermutation(pool[r.off:r.off+r.n], o.rep.Keys, &want):
			t.failed++
			t.wrong++
		default:
			t.keys += int64(r.n)
			t.latMs = append(t.latMs, ms(o.recv-r.due))
			continue
		}
		t.latMs = append(t.latMs, ms(elapsed))
	}
	return nil
}

// runServe runs one serving workload: set-up (median of setupRounds
// builds), then the measured windows. A traced run alternates untraced
// and traced windows, so its overhead is measured in the same process.
func runServe(cfg runConfig, spec serveSpec) (*report, error) {
	pool, wins := genServe(spec, cfg.seed, cfg.seconds)
	// The latencies are allocated whole before set-up, so the run's
	// peak RSS does not depend on when a growing slice was copied.
	requests := 0
	for _, win := range wins {
		requests += len(win.reqs)
	}
	var plain, traced serveTally
	plain.latMs = make([]float64, 0, requests)

	var srv *productsort.Server
	var setups []time.Duration
	wrong := 0
	for range setupRounds {
		if srv != nil {
			if err := srv.Close(context.Background()); err != nil {
				return nil, err
			}
		}
		// Each round starts from a collected heap, so no round pays for
		// an earlier one's garbage, and the rounds' garbage does not
		// pile up into the run's peak RSS.
		runtime.GC()
		s, d, bad, err := setupServer(spec, pool)
		if err != nil {
			return nil, err
		}
		srv, setups, wrong = s, append(setups, d), wrong+bad
	}
	defer srv.Close(context.Background())
	runtime.GC()

	pace, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer pace.close()
	var lt *serveLayers
	if cfg.trace {
		tracedRequests := 0
		for w := 1; w < len(wins); w += 2 {
			tracedRequests += len(wins[w].reqs)
		}
		if lt, err = newServeLayers(spec, srv, tracedRequests); err != nil {
			return nil, err
		}
	}
	for w, win := range wins {
		tally := &plain
		if lt != nil && w%2 == 1 {
			tally = &traced
			lt.begin(srv)
		}
		outs, start, elapsed, err := runWindow(srv, pool, win, pace)
		if err != nil {
			return nil, err
		}
		if tally == &traced {
			if err := lt.end(srv, win, outs, start); err != nil {
				return nil, err
			}
		}
		if err := tally.add(pool, win, outs, elapsed); err != nil {
			return nil, err
		}
		runtime.GC()
	}

	all := plain
	all.merge(&traced)
	rep := &report{
		correct:   all.wrong == 0 && wrong == 0,
		attempted: all.attempted,
		failed:    all.failed,
		values:    map[string]float64{},
		details: map[string]any{
			"offered_per_s": spec.rate, "max_keys": spec.maxKeys, "families": spec.families,
			"windows": len(wins), "window_s": wins[0].dur.Seconds(),
			"shed": all.shed, "warmup_mismatches": wrong,
			"setup_s_each": durSeconds(setups),
		},
	}
	if !cfg.trace {
		lat := plain.latMs
		slices.Sort(lat)
		rep.values["setup_s"] = durMedian(setups)
		rep.values["latency_p50_ms"] = slices.Min(plain.p50)
		rep.values["latency_p99_ms"] = slices.Min(plain.p99)
		rep.values["ops_per_s"] = float64(len(lat)-plain.failed) / plain.elapsed.Seconds()
		rep.values["keys_per_s"] = float64(plain.keys) / plain.elapsed.Seconds()
		rep.details["latency_samples"] = len(lat)
		rep.details["window_p50_ms"] = plain.p50
		rep.details["window_p99_ms"] = plain.p99
		rep.details["median_window_p50_ms"] = median(plain.p50)
		rep.details["median_window_p99_ms"] = median(plain.p99)
		if tail, ok := tailPercentile(len(lat)); ok {
			rep.details["tail_percentile"] = tail
			rep.details["tail_ms"] = percentile(lat, tail)
		}
		if perWindow := len(lat) / len(plain.p99); !reportable(99, perWindow) {
			return nil, fmt.Errorf("%d latency samples per window are too few for p99", perWindow)
		}
		return rep, nil
	}
	if err := lt.finish(rep, cfg.seed, pool, &plain, &traced); err != nil {
		return nil, err
	}
	return rep, nil
}

// merge folds o into t.
func (t *serveTally) merge(o *serveTally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.shed += o.shed
	t.keys += o.keys
	t.elapsed += o.elapsed
	t.latMs = append(t.latMs, o.latMs...)
	t.p50 = append(t.p50, o.p50...)
	t.p99 = append(t.p99, o.p99...)
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// bucketName extracts <plan> from a "serve.bucket.<plan>.<suffix>"
// instrument name.
func bucketName(instrument, suffix string) (string, bool) {
	rest, ok := strings.CutPrefix(instrument, "serve.bucket.")
	if !ok {
		return "", false
	}
	return strings.CutSuffix(rest, "."+suffix)
}
