package main

import (
	"math"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/obs"
)

// isPowerOfTwo reports whether v is 2^k for an integer k, the only values
// a log2-bucket histogram can report as a percentile.
func isPowerOfTwo(v float64) bool {
	if v <= 0 {
		return false
	}
	_, exp := math.Frexp(v)
	return v == math.Ldexp(0.5, exp)
}

func TestPercentileHandComputed(t *testing.T) {
	// Sorted: 3 7 11 19 23 (n=5, ranks 0..4).
	samples := []float64{19, 3, 23, 11, 7}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 3},
		{50, 11},     // rank 2
		{90, 21.4},   // rank 3.6: 19 + 0.6*(23-19)
		{99, 22.84},  // rank 3.96: 19 + 0.96*4
		{25, 7},      // rank 1
		{60, 14.2},   // rank 2.4: 11 + 0.4*8
		{100, 23},    // rank 4
		{12.5, 5.0},  // rank 0.5: 3 + 0.5*4
		{87.5, 21.0}, // rank 3.5: 19 + 0.5*4
	}
	for _, c := range cases {
		got := Percentile(samples, c.p)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if samples[0] != 19 || samples[4] != 7 {
		t.Errorf("Percentile reordered its input: %v", samples)
	}
}

func TestMedianEvenCountInterpolates(t *testing.T) {
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", got)
	}
	if got := Median([]float64{42}); got != 42 {
		t.Fatalf("median of one sample = %v, want 42", got)
	}
	if got := Median(nil); !math.IsNaN(got) {
		t.Fatalf("median of no samples = %v, want NaN", got)
	}
}

// TestPercentileIsNotABucketBound feeds the same latencies to the
// program's log2 histogram and to Percentile. The histogram can only
// answer powers of two (in microseconds); the exact routine must answer
// the hand-computed values, which are not.
func TestPercentileIsNotABucketBound(t *testing.T) {
	us := []float64{150, 170, 190, 210, 230, 250, 270, 290, 310, 330}
	var h obs.Histogram
	for _, v := range us {
		h.Observe(time.Duration(v * float64(time.Microsecond)))
	}
	snap := h.Snapshot()
	for _, c := range []struct {
		p        float64
		want     float64
		fromHist time.Duration
	}{
		{50, 240, snap.P50},   // rank 4.5: 230 + 0.5*20
		{90, 312, snap.P90},   // rank 8.1: 310 + 0.1*20
		{99, 328.2, snap.P99}, // rank 8.91: 310 + 0.91*20
	} {
		got := Percentile(us, c.p)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v µs, want %v µs", c.p, got, c.want)
		}
		if isPowerOfTwo(got) {
			t.Errorf("p%v = %v µs is a power of two: a bucket bound, not a sample statistic", c.p, got)
		}
		histUs := float64(c.fromHist) / float64(time.Microsecond)
		if math.Abs(histUs-got) < 1e-9 {
			t.Errorf("p%v equals the histogram's bucket answer %v µs", c.p, histUs)
		}
	}
}

func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true},
		{999, 99, false},
		{100, 90, true},
		{99, 90, false},
		{20, 50, true},
	} {
		if got := TailSupported(c.n, c.p, 10); got != c.want {
			t.Errorf("TailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ns := func(a, b int) Interval { return Interval{time.Duration(a), time.Duration(b)} }
	for _, c := range []struct {
		name     string
		parent   Interval
		children []Interval
		want     time.Duration
	}{
		{"no children", ns(0, 100), nil, 100},
		{"one child", ns(0, 100), []Interval{ns(10, 40)}, 70},
		// Overlapping children count once: [10,50) covers 40.
		{"overlap", ns(0, 100), []Interval{ns(10, 30), ns(20, 50)}, 60},
		// A child sticking out of the parent counts only inside it.
		{"clipped", ns(0, 100), []Interval{ns(90, 120), ns(-5, 5)}, 85},
		{"disjoint", ns(0, 100), []Interval{ns(10, 20), ns(30, 40), ns(50, 60)}, 70},
		{"outside", ns(0, 100), []Interval{ns(200, 300)}, 100},
		{"covered", ns(0, 100), []Interval{ns(0, 60), ns(50, 100)}, 0},
		{"nested", ns(0, 100), []Interval{ns(10, 80), ns(20, 30)}, 30},
	} {
		if got := SelfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLayerTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "client.sync", Layer: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "http.sync", Layer: "federation.http", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "shard.sync", Layer: "federation.shard", Start: 20, End: 70},
		{ID: 4, Parent: 2, Name: "shard.sync", Layer: "federation.shard", Start: 40, End: 80},
	}
	got := make(map[string]LayerTime)
	for _, lt := range LayerTimes(spans) {
		got[lt.Layer] = lt
	}
	want := map[string]LayerTime{
		"client":           {Layer: "client", Count: 1, Busy: 100, Self: 20},
		"federation.http":  {Layer: "federation.http", Count: 1, Busy: 80, Self: 20},
		"federation.shard": {Layer: "federation.shard", Count: 2, Busy: 90, Self: 90},
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("layer %s = %+v, want %+v", k, got[k], w)
		}
	}
}

func TestFailRatio(t *testing.T) {
	if r, err := FailRatio(0, 10); err != nil || r != 0 {
		t.Errorf("FailRatio(0, 10) = %v, %v", r, err)
	}
	if r, err := FailRatio(3, 12); err != nil || r != 0.25 {
		t.Errorf("FailRatio(3, 12) = %v, %v; want 0.25", r, err)
	}
	if _, err := FailRatio(0, 0); err == nil {
		t.Error("FailRatio(0, 0) accepted a run that attempted nothing")
	}
	if _, err := FailRatio(5, 4); err == nil {
		t.Error("FailRatio(5, 4) accepted more failures than attempts")
	}
}

func TestGeoMeanHandComputed(t *testing.T) {
	// (1 * 4 * 16)^(1/3) = 4; (2 * 8)^(1/2) = 4.
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 4, 16}, 4},
		{[]float64{8, 2}, 4},
		{[]float64{5}, 5},
	} {
		if got := GeoMean(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("GeoMean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range [][]float64{nil, {3, 0}, {-1, 2}} {
		if got := GeoMean(bad); !math.IsNaN(got) {
			t.Errorf("GeoMean(%v) = %v, want NaN", bad, got)
		}
	}
}
