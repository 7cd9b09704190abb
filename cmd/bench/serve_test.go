package main

import (
	"strings"
	"testing"
)

// TestServeGate: the serve curve fails on any shed request and on a
// slow median at the gate load only.
func TestServeGate(t *testing.T) {
	light := serveLevel{OfferedPerSec: serveGateLoad, Requests: 100, Completed: 100, P50Ms: 0.03}
	heavy := serveLevel{OfferedPerSec: 30000, Requests: 100, Completed: 100, P50Ms: 2}
	if err := serveGate([]serveLevel{light, heavy}); err != nil {
		t.Fatalf("clean curve failed: %v (a slow p50 away from %d req/s is not gated)", err, serveGateLoad)
	}
	slow := light
	slow.P50Ms = 2.3
	shed := heavy
	shed.Shed, shed.Completed = 1, 99
	for _, tc := range []struct {
		levels []serveLevel
		want   string
	}{
		{[]serveLevel{slow, heavy}, "p50 2.300 ms exceeds 0.5 ms"},
		{[]serveLevel{light, shed}, "30000 req/s shed 1 of 100"},
	} {
		err := serveGate(tc.levels)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("serveGate = %v, want an error containing %q", err, tc.want)
		}
	}
}
