package main

// layers.go reads the counters and histogram count/sum pairs the program
// already exports, before and after a measured window, and turns the
// deltas into per-layer metrics. Only counts and sums are used: they are
// exact, while the histograms' bucket percentiles are powers of two.

import (
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"github.com/afrinet/observatory/internal/obs"
)

// Histogram series the per-layer metrics read (rendered family{labels}).
const (
	seriesMutatorSync = `obs_mutator_seconds{op="probe_sync"}`
	seriesAppend      = `obs_journal_seconds{op="append"}`
	seriesFsync       = `obs_journal_seconds{op="fsync"}`
	seriesIngest      = `obs_store_seconds{op="ingest"}`
	seriesFlush       = `obs_store_seconds{op="flush"}`
	seriesScan        = `obs_store_seconds{op="scan"}`
	seriesAggregate   = `obs_store_seconds{op="aggregate"}`
	familyMutator     = "obs_mutator_seconds"
	familyShard       = "obs_fed_shard_seconds"
)

// histSum is a histogram's count and summed duration.
type histSum struct {
	Count uint64
	Sum   time.Duration
}

func (h histSum) meanUs() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count) / float64(time.Microsecond)
}

// fleetSnap is one reading of everything the fleet layers export.
type fleetSnap struct {
	hists        map[string]histSum // summed over controllers (and coordinator)
	counters     map[string]int64   // summed over controllers and coordinator
	journalBytes int64
	storeBytes   int64
	segments     int
	rt           runtimeSnap
}

// fleetDeltas is after minus before (segments is the after value).
type fleetDeltas struct {
	hists        map[string]histSum
	counters     map[string]int64
	journalBytes int64
	storeBytes   int64
	segments     int
	rt           runtimeSnap
}

// addHists folds a registry's series into m. Series of one family are
// also summed under the bare family name.
func addHists(m map[string]histSum, reg *obs.Registry) {
	for name, s := range reg.Snapshots() {
		for _, key := range []string{name, familyOf(name)} {
			h := m[key]
			h.Count += s.Count
			h.Sum += s.Sum
			m[key] = h
		}
	}
}

func familyOf(series string) string {
	for i := 0; i < len(series); i++ {
		if series[i] == '{' {
			return series[:i]
		}
	}
	return series + "\x00" // unlabeled: keep the family key distinct
}

// snapshotFleet reads the backend's exported state. With flush set, the
// result stores are sealed after the histograms are read, so byte counts
// include the memtable without the flush showing in the latency series.
func snapshotFleet(b *backend, flush bool) (fleetSnap, error) {
	s := fleetSnap{hists: make(map[string]histSum), counters: make(map[string]int64), rt: readRuntime()}
	for _, c := range b.ctrls {
		addHists(s.hists, c.Observability())
		for k, v := range c.DurabilityCounters() {
			s.counters[k] += v
		}
		for k, v := range c.ResultStore().Counters() {
			s.counters[k] += v
		}
		for k, v := range c.Stats().Counters {
			s.counters[k] += v
		}
	}
	if b.coord != nil {
		addHists(s.hists, b.coord.Observability())
		for k, v := range b.coord.Counters() {
			s.counters[k] += v
		}
	}
	if flush {
		for _, c := range b.ctrls {
			if err := c.ResultStore().Flush(); err != nil {
				return s, err
			}
		}
	}
	for _, c := range b.ctrls {
		s.segments += c.ResultStore().SegmentCount()
	}
	err := filepath.WalkDir(b.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		switch {
		case d.Name() == "journal.log":
			s.journalBytes += info.Size()
		case filepath.Base(filepath.Dir(path)) == "store":
			s.storeBytes += info.Size()
		}
		return nil
	})
	return s, err
}

func diffFleet(before, after fleetSnap) *fleetDeltas {
	d := &fleetDeltas{
		hists:        make(map[string]histSum),
		counters:     make(map[string]int64),
		journalBytes: after.journalBytes - before.journalBytes,
		storeBytes:   after.storeBytes - before.storeBytes,
		segments:     after.segments,
		rt:           after.rt.minus(before.rt),
	}
	for k, a := range after.hists {
		b := before.hists[k]
		d.hists[k] = histSum{Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	}
	for k, a := range after.counters {
		d.counters[k] = a - before.counters[k]
	}
	return d
}

// runtimeSnap is the Go runtime's cumulative GC and allocation state.
type runtimeSnap struct {
	gcCycles   uint64
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSnap {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	return runtimeSnap{
		gcCycles:   samples[0].Value.Uint64(),
		allocBytes: samples[1].Value.Uint64(),
		gcCPU:      samples[2].Value.Float64(),
		totalCPU:   samples[3].Value.Float64(),
	}
}

func (a runtimeSnap) minus(b runtimeSnap) runtimeSnap {
	return runtimeSnap{
		gcCycles:   a.gcCycles - b.gcCycles,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}

// gcCPUShare is the GC's share of the CPU time the process used.
func (a runtimeSnap) gcCPUShare() float64 {
	if a.totalCPU <= 0 {
		return 0
	}
	return a.gcCPU / a.totalCPU
}

// heapSampler tracks the peak of the Go heap (bytes in live and
// not-yet-swept heap objects) while a fixed amount of work runs: it
// samples every millisecond until progress reaches the quota or stop is
// called. Tying the window to work done, not to time, keeps the metric
// from growing when the program gets faster and does more work in the
// same seconds. A quota of 0 samples until stop.
type heapSampler struct {
	quota int64
	done  atomic.Int64
	peak  atomic.Uint64
	quit  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

const heapSeries = "/memory/classes/heap/objects:bytes"

func startHeapSampler(quota int64) *heapSampler {
	h := &heapSampler{quota: quota, quit: make(chan struct{})}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				h.sample()
				if h.quota > 0 && h.done.Load() >= h.quota {
					return
				}
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapSeries}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		cur := h.peak.Load()
		if v <= cur || h.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// progress adds finished work units toward the quota.
func (h *heapSampler) progress(n int64) {
	if h != nil {
		h.done.Add(n)
	}
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	h.once.Do(func() { close(h.quit) })
	h.wg.Wait()
	return h.peak.Load()
}
