package main

import (
	"math/rand"
	"testing"
	"time"
)

// The serving stages must add up exactly to each request's latency,
// from its due time to its receipt, whatever the stamps.
func TestServeStagesTileLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 10000 {
		due := time.Duration(rng.Int63n(int64(time.Second)))
		send := due + time.Duration(rng.Int63n(int64(5*time.Millisecond)))
		submitted := send + time.Duration(rng.Int63n(int64(50*time.Microsecond)))
		// The server's stamp lies inside the Submit call, and its reply
		// may even go out before Submit returns.
		t0 := send + time.Duration(rng.Int63n(int64(submitted-send)+1))
		wait := time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
		recv := max(submitted, t0+wait) + time.Duration(rng.Int63n(int64(time.Millisecond)))
		lag, sub, res, del := serveStages(due, send, submitted, recv, wait)
		if lag+sub+res+del != recv-due {
			t.Fatalf("stages %v+%v+%v+%v != latency %v", lag, sub, res, del, recv-due)
		}
		if lag != send-due || sub != submitted-send || res != max(0, wait-sub) {
			t.Fatalf("stages misassigned: lag %v submit %v resident %v", lag, sub, res)
		}
		if lag < 0 || sub < 0 || res < 0 || del < 0 {
			t.Fatalf("negative stage: lag %v submit %v resident %v delivery %v", lag, sub, res, del)
		}
	}
}

// A short traced serving run: every stage sum is checked inside the
// run, every reply is verified, and the replica planner must match the
// server's buckets.
func TestServeLightTracedShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the server for two seconds")
	}
	rep, err := runServe(runConfig{workload: "serve-light", seed: 7, seconds: 2, trace: true}, serveSpecs["serve-light"])
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", rep.correct, rep.attempted, rep.failed)
	}
	if _, err := collect(perLayer, rep.values); err != nil {
		t.Fatal(err)
	}
	if rep.values["serve.pad_ratio"] <= 0 || rep.values["serve.pad_ratio"] > 1 {
		t.Errorf("pad ratio %g outside (0, 1]", rep.values["serve.pad_ratio"])
	}
}
