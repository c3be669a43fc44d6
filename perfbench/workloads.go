package main

// workloads.go runs each named workload for one pass (setup, measured
// window, gates) and turns what it measured into metrics.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/afrinet/observatory/internal/experiments"
	"github.com/afrinet/observatory/internal/obs"
)

// passOpts are the inputs of one pass.
type passOpts struct {
	seed    int64
	seconds int
	data    string // scratch directory for journals and stores
	golden  string // path of the checked-in cmd/repro transcript
}

// outcome is what one pass of a workload produced.
type outcome struct {
	e2e       map[string]float64 // endToEnd metrics
	workload  map[string]float64 // workloadMetrics
	layers    map[string]float64 // layerMetrics, exp.*, self.*
	attempted int64
	failed    int64
	errs      []string // failed operations and gate violations
	samples   map[string]int
	wall      time.Duration
	clients   int                        // concurrent client goroutines
	rates     []float64                  // fleet passes: results acknowledged in each second
	series    map[string][]float64       // per-second and per-sweep figures, kept with the result
	layerRows []layerRow                 // traced passes: the per-layer time table
	slowest   map[string][]obs.TraceView // slowest request traces per controller
	sweep     *sweepResult
}

// layerRow is one line of the traced run's per-layer table.
type layerRow struct {
	layer string
	count int64
	busy  time.Duration
	self  time.Duration
}

func newOutcome() *outcome {
	return &outcome{
		e2e:      make(map[string]float64),
		workload: make(map[string]float64),
		layers:   make(map[string]float64),
		samples:  make(map[string]int),
	}
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(o passOpts, tr *Tracer, ref *outcome) (*outcome, error)
}

var workloads = []workload{
	{"fleet-sync", func(o passOpts, tr *Tracer, _ *outcome) (*outcome, error) {
		return runFleetPass(fleetSyncConfig, o, tr)
	}},
	{"fed-query-mix", func(o passOpts, tr *Tracer, _ *outcome) (*outcome, error) {
		return runFleetPass(fedQueryConfig, o, tr)
	}},
	{"repro-sweep", runSweepPass},
}

// fleetSyncConfig: the write path. Two probe clients over one durable
// controller.
var fleetSyncConfig = fleetConfig{
	probes:       400,
	probeClients: 2,
	setups:       25,
	heapQuota:    60000,
}

// fedQueryConfig: reads beside writes. One probe client and one analyst
// over a coordinator with two durable shards, eight preloaded
// experiments to query.
var fedQueryConfig = fleetConfig{
	federated:    true,
	shards:       2,
	probes:       400,
	preload:      8,
	probeClients: 1,
	analyst:      true,
	setups:       9,
	heapQuota:    60000,
}

// runFleetPass times cfg.setups setups, measures one window on the
// last, and audits it.
func runFleetPass(cfg fleetConfig, o passOpts, tr *Tracer) (*outcome, error) {
	speed, err := newSpeedProbe()
	if err != nil {
		return nil, err
	}
	defer speed.close()
	var setupS []float64
	var s *fleetSetup
	for i := 0; i < cfg.setups; i++ {
		dir := filepath.Join(o.data, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		var err error
		s, err = setupFleet(dir, cfg, o.seed, tr != nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if i < cfg.setups-1 {
			if err := s.b.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	res, err := runFleet(s, cfg, o.seed, o.seconds, tr, speed)
	if cerr := s.b.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	out := newOutcome()
	out.wall = res.wall
	out.clients = res.clients
	out.slowest = res.slowest
	out.attempted, out.failed = res.attempted, res.failed
	out.errs = res.errs
	wall := res.wall.Seconds()
	results := float64(res.results)

	out.e2e["heap_peak_mb"] = float64(res.heapPeak) / 1e6
	out.rates = slotRates(res.acks, res.wall)
	out.series = map[string][]float64{
		"results_per_second":     out.rates,
		"sync_p50_ms_per_second": slotMedians(res.acks, res.syncMs, res.wall),
	}
	call := Median(res.syncMs)
	if cfg.analyst {
		call = Median(res.queryMs)
	}
	atSpeed(out, speed, Median(setupS), Median(out.rates), call)

	w := out.workload
	w["results_per_s"] = results / wall
	w["sync_p50_ms"] = Median(res.syncMs)
	w["sync_p99_ms"] = tail(res.syncMs, 99)
	w["turnaround_p50_ms"] = Median(res.turnMs)
	w["turnaround_p90_ms"] = tail(res.turnMs, 90)
	if cfg.analyst {
		w["query_p50_ms"] = Median(res.queryMs)
		w["query_p90_ms"] = tail(res.queryMs, 90)
		w["queries_per_s"] = float64(len(res.queryMs)) / wall
	}
	fr, err := FailRatio(res.failed, res.attempted)
	if err != nil {
		return nil, err
	}
	w["fail_ratio"] = fr
	out.samples["sync"] = len(res.syncMs)
	out.samples["turnaround"] = len(res.turnMs)
	out.samples["query"] = len(res.queryMs)
	out.samples["submit"] = len(res.submitMs)
	out.samples["setup"] = len(setupS)

	fleetLayers(out, cfg, res, tr)
	return out, nil
}

// slotRates counts the results acknowledged in each whole second of the
// window (a trailing partial second is dropped).
func slotRates(acks []ack, wall time.Duration) []float64 {
	slots := make([]float64, int(wall/time.Second))
	for _, a := range acks {
		if i := int(a.at / time.Second); i >= 0 && i < len(slots) {
			slots[i] += float64(a.n)
		}
	}
	return slots
}

// slotMedians is the median of the samples that completed in each whole
// second of the window; at[i] is when sample v[i] completed.
func slotMedians(at []ack, v []float64, wall time.Duration) []float64 {
	slots := make([][]float64, int(wall/time.Second))
	for i, a := range at {
		if j := int(a.at / time.Second); j >= 0 && j < len(slots) {
			slots[j] = append(slots[j], v[i])
		}
	}
	out := make([]float64, len(slots))
	for j, s := range slots {
		out[j] = zeroNaN(Median(s))
	}
	return out
}

// tail is the p-th percentile when at least ten samples lie beyond it,
// else 0 (the sample cannot support that tail).
func tail(samples []float64, p float64) float64 {
	if !TailSupported(len(samples), p, 10) {
		return 0
	}
	return Percentile(samples, p)
}

// fleetLayers fills the per-layer metrics of a fleet pass from the
// exported count/sum deltas and, when traced, from the spans.
func fleetLayers(out *outcome, cfg fleetConfig, res *fleetResult, tr *Tracer) {
	d := res.deltas
	h := d.hists
	m := out.layers
	wall := res.wall
	results := float64(res.results)
	syncs := float64(res.syncs)
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	us := func(x time.Duration) float64 { return float64(x) / float64(time.Microsecond) }
	mutSync, mutAll := h[seriesMutatorSync], h[familyMutator]
	app, fs := h[seriesAppend], h[seriesFsync]
	ing, fl := h[seriesIngest], h[seriesFlush]
	sc, ag := h[seriesScan], h[seriesAggregate]
	sh := h[familyShard]
	var httpUs float64
	for _, v := range res.httpUs {
		httpUs += v
	}

	m["core.http.sync.mean_us"] = per(httpUs, syncs)
	m["core.http.sync.count"] = syncs
	m["core.mutator.sync.mean_us"] = mutSync.meanUs()
	m["core.sync.outside_mutator_us"] = per(httpUs-us(mutSync.Sum)-us(ing.Sum), syncs)
	m["core.sync.results_per_sync"] = per(results, syncs)
	m["core.sync.empty_ratio"] = per(float64(res.emptySyncs), syncs)
	m["core.submit.mean_ms"] = zeroNaN(Mean(res.submitMs))

	m["journal.append.count"] = float64(app.Count)
	m["journal.append.mean_us"] = app.meanUs()
	m["journal.fsync.mean_us"] = fs.meanUs()
	m["journal.encode_write.mean_us"] = per(us(app.Sum-fs.Sum), float64(app.Count))
	m["journal.fsync.busy_share"] = per(float64(fs.Sum), float64(wall))
	m["journal.fsyncs_per_result"] = per(float64(fs.Count), results)
	m["journal.bytes_per_result"] = per(float64(d.journalBytes), results)

	m["store.ingest.mean_us"] = ing.meanUs()
	m["store.flush.count"] = float64(fl.Count)
	m["store.flush.mean_ms"] = fl.meanUs() / 1000
	m["store.flush.busy_share"] = per(float64(fl.Sum), float64(wall))
	m["store.bytes_per_result"] = per(float64(d.storeBytes), results)
	m["store.scan.mean_ms"] = sc.meanUs() / 1000
	m["store.aggregate.mean_ms"] = ag.meanUs() / 1000
	m["store.segments"] = float64(d.segments)

	m["federation.shard_call.mean_ms"] = sh.meanUs() / 1000
	m["federation.hedge_ratio"] = per(float64(d.counters["fed_hedges"]), float64(sh.Count))
	m["federation.degraded_ratio"] = per(float64(d.counters["fed_degraded_queries"]), float64(d.counters["fed_queries"]))

	m["go.alloc_bytes_per_result"] = per(float64(d.rt.allocBytes), results)
	m["go.gc_cycles"] = float64(d.rt.gcCycles)
	m["go.gc_cpu_share"] = d.rt.gcCPUShare()

	if tr == nil {
		return
	}
	spans := tr.SpansSince(res.from)
	if cfg.federated {
		m["federation.query.merge_ms"] = ms(meanSelf(spans, "http.query"))
		m["federation.sync.route_us"] = us(meanSelf(spans, "http.sync"))
	}

	// Span layers first, then the program's own layers from count/sum
	// deltas, each taken out of the span layer that encloses it.
	self := make(map[string]time.Duration)
	counts := make(map[string]int64)
	busy := make(map[string]time.Duration)
	for _, lt := range LayerTimes(spans) {
		self[lt.Layer], counts[lt.Layer], busy[lt.Layer] = lt.Self, int64(lt.Count), lt.Busy
	}
	query := sc.Sum + ag.Sum
	if cfg.federated {
		self["federation.shard"] -= mutSync.Sum + ing.Sum + query
		self["federation.http"] -= mutAll.Sum - mutSync.Sum
	} else {
		self["core.http"] -= mutAll.Sum + ing.Sum + query
	}
	inner := []struct {
		layer string
		h     histSum
		self  time.Duration
	}{
		{"core.mutator", mutAll, mutAll.Sum - app.Sum},
		{"journal.encode_write", app, app.Sum - fs.Sum},
		{"journal.fsync", fs, fs.Sum},
		{"store.ingest", ing, ing.Sum - fl.Sum},
		{"store.flush", fl, fl.Sum},
		{"store.query", histSum{Count: sc.Count + ag.Count, Sum: query}, query},
	}
	for _, l := range inner {
		self[l.layer], counts[l.layer], busy[l.layer] = l.self, int64(l.h.Count), l.h.Sum
	}
	clientTime := float64(wall) * float64(res.clients)
	for _, l := range selfLayers {
		m["self."+l+".share"] = per(float64(self[l]), clientTime)
		if counts[l] > 0 {
			out.layerRows = append(out.layerRows, layerRow{l, counts[l], busy[l], self[l]})
		}
	}
}

// meanSelf is the mean self time of the spans named name: for a
// coordinator handler, the time it spent outside every shard call it
// made (routing, the central merge and fold, JSON).
func meanSelf(spans []Span, name string) time.Duration {
	kids := make(map[int64][]Interval)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], Interval{s.Start, s.End})
		}
	}
	var sum time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == name {
			sum += SelfTime(Interval{s.Start, s.End}, kids[s.ID])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// sweepWorlds is how many worlds one repro-sweep pass covers: world j
// is built from seed+j. How much work a sweep is depends on its world
// (the heaviest of the first few seeds takes 15% longer than the
// lightest), so a pass that swept one world would carry that into its
// figures; the pass reports the geometric mean over its worlds.
const sweepWorlds = 4

// runSweepPass runs full sweeps, each over a fresh Env, cycling through
// sweepWorlds worlds until the window has passed, and always at least
// once more than there are worlds, so the first world's repeatability
// is always checked. Each world's later sweeps must render exactly as
// its first.
func runSweepPass(o passOpts, tr *Tracer, ref *outcome) (*outcome, error) {
	out := newOutcome()
	out.clients = 1
	// jobRate is drivers completed per second of a whole job (NewEnv
	// included); driverGeo is each sweep's geometric mean driver time.
	// Both are kept per world.
	var setupS, sweepS, heapMB []float64
	jobRate := make([][]float64, sweepWorlds)
	driverGeo := make([][]float64, sweepWorlds)
	expS := make(map[string][]float64)
	envS := make(map[string][]float64)
	firsts := make([]*sweepResult, sweepWorlds)
	speed, err := newSpeedProbe()
	if err != nil {
		return nil, err
	}
	defer speed.close()
	rt0 := readRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	var hits, misses uint64
	for i := 0; i <= sweepWorlds || time.Now().Before(deadline); i++ {
		w := i % sweepWorlds
		seed := o.seed + int64(w)
		// Each sweep starts from the heap a fresh cmd/repro process would
		// see: the previous sweep's Env is collected first.
		runtime.GC()
		heap := startHeapSampler(0)
		t0 := time.Now()
		var env *experiments.Env
		if tr != nil {
			var steps []envStep
			env, steps = buildEnvTraced(seed, tr)
			for _, st := range steps {
				envS[st.name] = append(envS[st.name], st.d.Seconds())
			}
		} else {
			env = experiments.NewEnv(seed, envYear)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		out.attempted += int64(len(reproList))
		sw, err := runSweep(seed, env, tr, speed)
		heapMB = append(heapMB, float64(heap.stop())/1e6)
		if err != nil {
			out.failed++
			out.errs = append(out.errs, err.Error())
			break
		}
		sweepS = append(sweepS, sw.total.Seconds())
		jobRate[w] = append(jobRate[w], float64(len(reproList))/(setupS[len(setupS)-1]+sw.total.Seconds()))
		var driverMs []float64
		for id, d := range sw.expTime {
			expS[id] = append(expS[id], d.Seconds())
			driverMs = append(driverMs, ms(d))
		}
		driverGeo[w] = append(driverGeo[w], GeoMean(driverMs))
		hits, misses = sw.dnsHits, sw.dnsMiss
		if firsts[w] == nil {
			firsts[w] = sw
		} else {
			out.errs = append(out.errs, checkRepeatable(firsts[w], sw)...)
		}
	}
	out.wall = time.Since(start)
	rt := readRuntime().minus(rt0)
	first := firsts[0]
	if first == nil {
		return out, nil
	}
	out.sweep = first
	if ref != nil && ref.sweep != nil {
		// The traced pass built its Env constructor by constructor; it
		// must render exactly what NewEnv's Env rendered.
		out.errs = append(out.errs, checkRepeatable(ref.sweep, first)...)
	}
	if o.seed == 42 {
		golden, err := readGolden(o.golden)
		if err != nil {
			return nil, fmt.Errorf("repro golden: %w", err)
		}
		out.errs = append(out.errs, checkGolden(first, golden)...)
	}

	sweepMed := Median(sweepS)
	out.e2e["heap_peak_mb"] = Median(heapMB)
	atSpeed(out, speed, Median(setupS), overWorlds(jobRate), overWorlds(driverGeo))
	out.workload["sweep_s"] = sweepMed
	fr, err := FailRatio(out.failed, out.attempted)
	if err != nil {
		return nil, err
	}
	out.workload["fail_ratio"] = fr
	out.samples["sweep"] = len(sweepS)
	out.series["sweep_s"] = sweepS
	out.series["setup_s"] = setupS
	out.series["heap_peak_mb"] = heapMB
	out.samples["setup"] = len(setupS)

	m := out.layers
	experimentsRun := float64(len(reproList) * len(sweepS))
	m["go.alloc_bytes_per_result"] = float64(rt.allocBytes) / experimentsRun
	m["go.gc_cycles"] = float64(rt.gcCycles)
	m["go.gc_cpu_share"] = rt.gcCPUShare()
	if hits+misses > 0 {
		m["dnssim.chain_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	for _, e := range reproList {
		m["exp."+e.id+"_s"] = Median(expS[e.id])
	}
	if tr == nil {
		return out, nil
	}
	var envTotal, expTotal time.Duration
	for name, v := range envS {
		m["env."+name+"_s"] = Median(v)
		for _, x := range v {
			envTotal += time.Duration(x * float64(time.Second))
		}
	}
	for _, lt := range LayerTimes(tr.Spans()) {
		if lt.Layer == "env" || lt.Layer == "sweep" {
			continue
		}
		out.layerRows = append(out.layerRows, layerRow{lt.Layer, int64(lt.Count), lt.Busy, lt.Self})
		if len(lt.Layer) > 4 && lt.Layer[:4] == "exp." {
			expTotal += lt.Self
		}
	}
	m["self.env.share"] = float64(envTotal) / float64(out.wall)
	m["self.exp.share"] = float64(expTotal) / float64(out.wall)
	return out, nil
}

// overWorlds is the geometric mean over worlds of each world's median;
// worlds not swept (a failed pass) are left out.
func overWorlds(perWorld [][]float64) float64 {
	var meds []float64
	for _, v := range perWorld {
		if len(v) > 0 {
			meds = append(meds, Median(v))
		}
	}
	return GeoMean(meds)
}

// atSpeed states the pass's set-up time, throughput and call time at
// the reference machine's quiet speed: a rate measured at speed s is
// divided by s^speedExponent, a time multiplied by it. The measured
// figures and the speed are kept as per-layer diagnostics.
func atSpeed(out *outcome, speed *speedProbe, setup, throughput, call float64) {
	s := speed.median()
	f := math.Pow(s, speedExponent)
	out.e2e["setup_s"] = setup * f
	out.e2e["throughput_per_s"] = throughput / f
	out.e2e["call_ms"] = call * f
	out.workload["machine.speed"] = s
	out.workload["raw.setup_s"] = setup
	out.workload["raw.throughput_per_s"] = throughput
	out.workload["raw.call_ms"] = call
	out.samples["speed"] = speed.count()
	if out.series == nil {
		out.series = make(map[string][]float64)
	}
	out.series["machine_speed"], out.series["machine_speed_alu"], out.series["machine_speed_mem"] = speed.series()
}

// zeroNaN maps the NaN of an empty sample set to 0 for printing.
func zeroNaN(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
