package main

import (
	"slices"
	"testing"
	"time"
)

func TestPacerOvershoot(t *testing.T) {
	p, err := newPacer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	var over []time.Duration
	for range 500 {
		t0 := time.Now()
		if err := p.sleep(200 * time.Microsecond); err != nil {
			t.Fatal(err)
		}
		d := time.Since(t0)
		if d < 200*time.Microsecond {
			t.Fatalf("woke after %v, before the deadline", d)
		}
		over = append(over, d-200*time.Microsecond)
	}
	slices.Sort(over)
	t.Logf("overshoot p50 %v p90 %v max %v", over[250], over[450], over[499])
}
