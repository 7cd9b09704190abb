package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"productsort/internal/obs"
	"productsort/internal/schedule"
	"productsort/internal/serve"
)

func TestParseProcs(t *testing.T) {
	ncpu := runtime.NumCPU()
	for _, tc := range []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{in: "1,4", want: []int{1, 4}},
		{in: "4, 1,4", want: []int{1, 4}},   // dedup + ascending
		{in: "0", want: []int{ncpu}},        // 0 = all CPUs
		{in: " 2 ,, 3 ", want: []int{2, 3}}, // whitespace and empties
		{in: "x", wantErr: true},
		{in: "-1", wantErr: true},
		{in: "", wantErr: true},
	} {
		got, err := parseProcs(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseProcs(%q) = %v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseProcs(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseProcs(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestRunContendBenchSweep drives a tiny real sweep end to end and
// checks the artifact schema: every (store, procs) cell present with
// positive throughput, gate recorded as disabled.
func TestRunContendBenchSweep(t *testing.T) {
	out := filepath.Join(t.TempDir(), "contend.json")
	if err := runContendBench(out, "1,2", 5*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep contendReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if rep.Host.NumCPU < 1 || rep.Host.GOMAXPROCS < 1 || rep.Host.GoVersion == "" || rep.Host.GitCommit == "" {
		t.Errorf("host block incomplete: %+v", rep.Host)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4 (2 stores x 2 proc counts)", len(rep.Cells))
	}
	for _, store := range []string{"mutex-lru", "lock-free"} {
		for _, procs := range []int{1, 2} {
			tp := throughputFor(rep.Cells, store, procs)
			if tp <= 0 {
				t.Errorf("store %s at %d procs: throughput %v, want > 0", store, procs, tp)
			}
		}
	}
	if throughputFor(rep.Cells, "no-such-store", 1) != 0 {
		t.Error("throughputFor invented a cell for an unknown store")
	}
	if rep.Gate.Enforced || !rep.Gate.Pass || rep.Gate.SkipReason == "" {
		t.Errorf("disabled gate misrecorded: %+v", rep.Gate)
	}
}

// TestRunContendBenchGateSkips: an armed gate must auto-skip (and
// pass) when the sweep cannot express contention — here, a
// single-proc-only sweep on any host.
func TestRunContendBenchGateSkips(t *testing.T) {
	out := filepath.Join(t.TempDir(), "contend.json")
	if err := runContendBench(out, "1", 5*time.Millisecond, 2); err != nil {
		t.Fatalf("armed gate on a 1-proc sweep must skip, not fail: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep contendReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Gate.Enforced || !rep.Gate.Pass {
		t.Fatalf("gate should be skipped and passing: %+v", rep.Gate)
	}
	if rep.Gate.SkipReason != "sweep has no multi-proc cell" {
		t.Fatalf("skip reason = %q", rep.Gate.SkipReason)
	}
	if rep.Gate.MinGain != 2 {
		t.Fatalf("artifact lost the requested mingain: %+v", rep.Gate)
	}
}

// TestSplitmix64Deterministic: the worker key refill is a pure stream.
func TestSplitmix64Deterministic(t *testing.T) {
	a, b := uint64(7), uint64(7)
	for i := 0; i < 100; i++ {
		if splitmix64(&a) != splitmix64(&b) {
			t.Fatal("splitmix64 diverged on identical state")
		}
	}
	c, d := uint64(1), uint64(2)
	if splitmix64(&c) == splitmix64(&d) {
		t.Fatal("distinct seeds produced identical first draw")
	}
}

// TestPlanCacheLRU: the mutex baseline's hits refresh recency, capacity
// evicts the least recently used entry, and a re-Get after eviction
// recompiles.
func TestPlanCacheLRU(t *testing.T) {
	pl, plans, err := contendPlans()
	if err != nil {
		t.Fatal(err)
	}
	c := newPlanCache(2, obs.NewMetrics())

	get := func(p *serve.Plan) {
		t.Helper()
		prog, err := c.Get(p, pl.Engine())
		if err != nil {
			t.Fatal(err)
		}
		if prog.Net() != p.Net {
			t.Fatalf("cache returned program for %s, want %s", prog.Net().Name(), p.Name())
		}
	}

	get(plans[0]) // miss
	get(plans[0]) // hit
	get(plans[1]) // miss; order now [1, 0]
	get(plans[0]) // hit;  order now [0, 1]
	get(plans[2]) // miss; evicts 1
	if h, mi, ev := c.hits.Value(), c.misses.Value(), c.evictions.Value(); h != 2 || mi != 3 || ev != 1 {
		t.Fatalf("hits/misses/evictions = %d/%d/%d, want 2/3/1", h, mi, ev)
	}
	get(plans[1]) // miss again: it was evicted
	if mi := c.misses.Value(); mi != 4 {
		t.Fatalf("misses = %d, want 4", mi)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// TestPlanCacheConcurrentGets: many goroutines hammering the baseline
// agree on one program per residency (the once-guard coalesces
// compiles), and the cache stays consistent under the race detector.
func TestPlanCacheConcurrentGets(t *testing.T) {
	pl, plans, err := contendPlans()
	if err != nil {
		t.Fatal(err)
	}
	c := newPlanCache(2, obs.NewMetrics())
	var wg sync.WaitGroup
	progs := make([]*schedule.Program, 16)
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prog, err := c.Get(plans[i%len(plans)], pl.Engine())
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = prog
		}(i)
	}
	wg.Wait()
	for i, p := range progs {
		if p == nil {
			t.Fatalf("goroutine %d got no program", i)
		}
	}
	if c.Len() > 2 {
		t.Fatalf("Len = %d exceeds capacity", c.Len())
	}
}
