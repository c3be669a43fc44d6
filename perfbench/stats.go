package main

import (
	"errors"
	"math"
	"sort"
	"time"
)

// Percentile returns the exact p-th percentile (0 <= p <= 100) of the
// samples by linear interpolation between the two closest order
// statistics (the "type 7" definition numpy and spreadsheets use). It
// works on raw per-operation samples, never on histogram buckets, so a
// reported p99 is a value the samples support rather than a bucket
// bound. The input is not modified. An empty sample set yields NaN.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 || p < 0 || p > 100 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	frac := rank - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// Median is Percentile(samples, 50).
func Median(samples []float64) float64 { return Percentile(samples, 50) }

// TailSupported reports whether the p-th percentile of n samples has at
// least minBeyond samples above it — the rule for reporting a tail only
// where the sample can support it.
func TailSupported(n int, p float64, minBeyond int) bool {
	return float64(n)*(100-p)/100 >= float64(minBeyond)
}

// Mean returns the arithmetic mean, NaN for no samples.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// GeoMean returns the geometric mean of positive samples, NaN for none
// or for any sample <= 0. Every sample weighs the same in it whatever
// its size, so it sums up a set of unlike timings (one per driver)
// without letting the largest ones decide it.
func GeoMean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, v := range samples {
		if v <= 0 {
			return math.NaN()
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(samples)))
}

// Interval is a half-open time interval [Start, End).
type Interval struct {
	Start, End time.Duration
}

// SelfTime is a span's duration minus the part of it covered by its
// children. Children may overlap one another (parallel shard calls) and
// may stick out of the parent; only the union of their intersection with
// the parent is subtracted, so self time is never negative and parallel
// work is not subtracted twice.
func SelfTime(parent Interval, children []Interval) time.Duration {
	if parent.End <= parent.Start {
		return 0
	}
	clipped := make([]Interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			clipped = append(clipped, Interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var covered time.Duration
	var cur Interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			cur.End = max(cur.End, c.End)
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}

// errNoAttempts rejects a failure ratio over an empty run: a benchmark
// that attempted nothing has not shown that nothing fails.
var errNoAttempts = errors.New("fail ratio: no operations attempted")

// FailRatio is failed operations over operations attempted. Failed
// counts every operation that did not deliver a correct answer: non-200
// responses, transport or decode errors, and degraded federated answers.
func FailRatio(failed, attempted int64) (float64, error) {
	if attempted <= 0 {
		return 0, errNoAttempts
	}
	if failed < 0 || failed > attempted {
		return 0, errors.New("fail ratio: failed outside [0, attempted]")
	}
	return float64(failed) / float64(attempted), nil
}
