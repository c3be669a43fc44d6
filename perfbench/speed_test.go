package main

import (
	"math"
	"testing"
)

// TestSpeedProbeSamples checks the probe records one finite, positive
// speed per sample and reports their median.
func TestSpeedProbeSamples(t *testing.T) {
	p, err := newSpeedProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	if !math.IsNaN(p.median()) {
		t.Fatal("median of no samples is not NaN")
	}
	for i := 0; i < 3; i++ {
		if d := p.sample(); d <= 0 {
			t.Fatalf("sample took %v", d)
		}
	}
	if p.count() != 3 {
		t.Fatalf("count = %d, want 3", p.count())
	}
	if s := p.median(); !(s > 0) || math.IsInf(s, 0) {
		t.Fatalf("median speed = %v", s)
	}
}

// TestAtSpeed checks the scaling: at a quarter of the reference speed,
// scaled by speed^1.5 = 1/8, a rate is stated 8 times higher and a time
// 8 times lower.
func TestAtSpeed(t *testing.T) {
	p := &speedProbe{speed: []float64{0.2, 0.25, 0.3}}
	out := newOutcome()
	atSpeed(out, p, 0.2, 1000, 8)
	if out.e2e["setup_s"] != 0.025 || out.e2e["throughput_per_s"] != 8000 || out.e2e["call_ms"] != 1 {
		t.Fatalf("at speed 0.25: %v; want setup 0.025, throughput 8000, call 1", out.e2e)
	}
	if out.workload["raw.setup_s"] != 0.2 || out.workload["raw.throughput_per_s"] != 1000 || out.workload["raw.call_ms"] != 8 || out.workload["machine.speed"] != 0.25 {
		t.Fatalf("diagnostics = %v", out.workload)
	}
}
