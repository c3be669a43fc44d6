package main

// fleet.go drives the two control-plane workloads through the program's
// v1 HTTP surface, in process (httptest requests into Handler(), no
// sockets): fleet-sync against one durable controller, fed-query-mix
// against a coordinator over two durable shards. Every client is closed
// loop — it sends its next request only after the previous reply.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/federation"
	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
	"github.com/afrinet/observatory/internal/topology"
)

// fleetConfig is one fleet workload's shape.
type fleetConfig struct {
	federated    bool
	shards       int
	probes       int // fleet size, split evenly over fleetCountries
	preload      int // experiments preloaded with results in setup
	probeClients int // closed-loop probe client goroutines
	analyst      bool
	setups       int   // setups timed per run; the last one serves the run
	heapQuota    int64 // results acknowledged over which heap_peak_mb is taken
}

// Federation deadlines, recorded with every result.
const (
	fedQueryDeadline = 2 * time.Second
	fedHedgeAfter    = 250 * time.Millisecond
)

// benchOwner is the trusted (auto-approved) experiment owner.
const benchOwner = "bench"

// fleetCountries is the fleet's vantage spread; each experiment covers
// the probes of one country.
var fleetCountries = []string{"NG", "KE", "ZA", "GH", "SN", "TZ", "EG", "MA"}

// The fleet's traffic shape, shared by both fleet workloads. The
// per-probe numbers are cmd/fleetsim's defaults (-tasks-per-probe 16,
// -sync-max 16). Two experiments per country are kept in flight, so a
// probe usually has more than syncMax tasks queued: the ask limits each
// lease, and the sync that delivers one batch also leases the next.
const (
	tasksPerProbe      = 16 // tasks per probe in one experiment
	syncMax            = 16 // lease ask (and result batch cap) per sync
	inFlightPerCountry = 2  // live experiments kept in flight on each country
)

// syncsPerQuery is fed-query-mix's read/write mix: one aggregate query
// per 32 probe syncs, 512 results. A query then overlaps about as many
// syncs as fit in its own time on the reference machine (a 30-40 ms
// query against 0.4-ms syncs), so neither client idles for long.
const syncsPerQuery = 32

// simProbe is one simulated probe: identity plus the outbox of executed
// results not yet acknowledged.
type simProbe struct {
	id      string
	country string
	outbox  []probes.Result
}

// backend is the system under test and the handles the audit needs.
type backend struct {
	handler http.Handler
	ctrls   []*core.Controller
	coord   *federation.Coordinator
	dir     string
	traced  []*tracedShard // shard wrappers of a traced pass
}

func (b *backend) close() error {
	var first error
	if b.coord != nil {
		first = b.coord.Close()
	}
	for _, c := range b.ctrls {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// openBackend boots the durable controller (or coordinator + shards)
// on a fresh directory. In traced passes the shards are wrapped so shard
// calls can be timed as spans once the window starts.
func openBackend(dir string, cfg fleetConfig, traced bool) (*backend, error) {
	dcfg := core.DurabilityConfig{
		Trusted: []string{benchOwner},
		// The run never ticks, so leases cannot expire mid-window.
		LeaseTTL: 1 << 30,
		// Set explicitly so the environment record names what ran.
		StoreFlushEvery: storeFlushEvery,
		SnapshotEvery:   journalSnapshotEvery,
	}
	if !cfg.federated {
		ctrl, err := core.Recover(dir, dcfg)
		if err != nil {
			return nil, err
		}
		return &backend{handler: ctrl.Handler(), ctrls: []*core.Controller{ctrl}, dir: dir}, nil
	}
	coord, err := federation.New(filepath.Join(dir, "coordinator"), federation.Config{
		QueryDeadline: fedQueryDeadline,
		HedgeAfter:    fedHedgeAfter,
	})
	if err != nil {
		return nil, err
	}
	b := &backend{handler: coord.Handler(), coord: coord, dir: dir}
	for i := 0; i < cfg.shards; i++ {
		id := fmt.Sprintf("shard-%d", i)
		ctrl, err := core.Recover(filepath.Join(dir, id), dcfg)
		if err != nil {
			b.close()
			return nil, err
		}
		b.ctrls = append(b.ctrls, ctrl)
		var sh federation.Shard = federation.NewLocalShard(ctrl)
		if traced {
			ts := &tracedShard{Shard: sh, id: id}
			b.traced = append(b.traced, ts)
			sh = ts
		}
		if err := coord.AddShard(id, sh); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

// tracedShard times the coordinator's calls into a shard. Its tracer is
// set when the measured window starts (nil records nothing), so setup
// traffic stays out of the trace.
type tracedShard struct {
	federation.Shard
	tr atomic.Pointer[Tracer]
	id string
}

func (s *tracedShard) Sync(req core.SyncRequest) (core.SyncResponse, error) {
	tr := s.tr.Load()
	sp := tr.Open(tr.Bound(req.ProbeID), req.ProbeID, "shard.sync "+s.id, "federation.shard")
	defer tr.Close(sp)
	return s.Shard.Sync(req)
}

// ScanPage is how a federated aggregate reads a shard: the coordinator
// scans every shard and folds the merged records itself.
func (s *tracedShard) ScanPage(f store.Filter, limit int, cursor string) ([]store.Record, string, error) {
	tr := s.tr.Load()
	sp := tr.Open(tr.Bound(queryKey), "", "shard.scan "+s.id, "federation.shard")
	defer tr.Close(sp)
	return s.Shard.ScanPage(f, limit, cursor)
}

// queryKey binds the analyst's open query span for the shard wrapper.
const queryKey = "\x00query"

// fleetSetup is what a setup leaves for the run.
type fleetSetup struct {
	b       *backend
	fleet   []*simProbe
	preload []preloaded
	acked   int64 // results acknowledged during setup (preload)
}

// preloaded is one experiment whose results were delivered in setup.
type preloaded struct {
	id    string
	tasks int64
}

// buildFleet lays out the probes: an equal share per country, ASNs and
// the visiting order drawn from the seed.
func buildFleet(cfg fleetConfig, seed int64) ([]core.ProbeInfo, []*simProbe) {
	rng := rand.New(rand.NewSource(seed))
	infos := make([]core.ProbeInfo, cfg.probes)
	for i := range infos {
		infos[i] = core.ProbeInfo{
			ID:      fmt.Sprintf("p-%05d", i),
			Country: fleetCountries[i%len(fleetCountries)],
			ASN:     topology.ASN(36900 + rng.Intn(64)),
			Kind:    "sim",
		}
	}
	rng.Shuffle(len(infos), func(i, j int) { infos[i], infos[j] = infos[j], infos[i] })
	fleet := make([]*simProbe, len(infos))
	for i, p := range infos {
		fleet[i] = &simProbe{id: p.ID, country: p.Country}
	}
	return infos, fleet
}

// setupFleet boots the backend, registers the fleet and, for the
// federated workload, preloads result experiments through the
// coordinator's Go API. It is the work setup_s times.
func setupFleet(dir string, cfg fleetConfig, seed int64, traced bool) (*fleetSetup, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b, err := openBackend(dir, cfg, traced)
	if err != nil {
		return nil, err
	}
	infos, fleet := buildFleet(cfg, seed)
	for _, p := range infos {
		if b.coord != nil {
			err = b.coord.Register(p)
		} else {
			err = b.ctrls[0].RegisterProbe(p)
		}
		if err != nil {
			b.close()
			return nil, fmt.Errorf("register %s: %w", p.ID, err)
		}
	}
	s := &fleetSetup{b: b, fleet: fleet}
	if cfg.preload > 0 {
		if err := s.preloadResults(cfg, seed); err != nil {
			b.close()
			return nil, err
		}
	}
	return s, nil
}

// preloadResults submits cfg.preload experiments, one per country in
// turn, and delivers every result so the analyst has a fixed set of
// finished experiments to query. The stores are flushed afterwards so
// the preloaded records sit in sealed segments apart from live ingest.
func (s *fleetSetup) preloadResults(cfg fleetConfig, seed int64) error {
	for i := 0; i < cfg.preload; i++ {
		country := fleetCountries[i%len(fleetCountries)]
		exp, err := s.b.coord.Submit(fmt.Sprintf("preload-%d", i), benchOwner, "preload "+country,
			assignmentsFor(s.fleet, country))
		if err != nil {
			return fmt.Errorf("preload submit: %w", err)
		}
		s.preload = append(s.preload, preloaded{id: exp.ID, tasks: int64(len(exp.Assignments))})
	}
	for _, p := range s.fleet {
		for {
			resp, err := s.b.coord.Sync(core.SyncRequest{ProbeID: p.id, Results: p.outbox, Max: 1 << 20})
			if err != nil {
				return fmt.Errorf("preload sync %s: %w", p.id, err)
			}
			if resp.Accepted != len(p.outbox) {
				return fmt.Errorf("preload sync %s: %d of %d results accepted", p.id, resp.Accepted, len(p.outbox))
			}
			s.acked += int64(resp.Accepted)
			p.outbox = p.outbox[:0]
			if len(resp.Tasks) == 0 {
				break
			}
			for _, t := range resp.Tasks {
				p.outbox = append(p.outbox, execute(seed, p.id, t))
			}
		}
	}
	for _, c := range s.b.ctrls {
		if err := c.ResultStore().Flush(); err != nil {
			return fmt.Errorf("preload flush: %w", err)
		}
	}
	return nil
}

// assignmentsFor builds one experiment: tasksPerProbe pings on every
// probe of the country.
func assignmentsFor(fleet []*simProbe, country string) []probes.Assignment {
	var as []probes.Assignment
	for _, p := range fleet {
		if p.country != country {
			continue
		}
		for k := 0; k < tasksPerProbe; k++ {
			as = append(as, probes.Assignment{
				ProbeID: p.id,
				Task:    probes.Task{Kind: probes.TaskPing, Target: fmt.Sprintf("10.%d.0.1", k)},
			})
		}
	}
	return as
}

// execute fabricates a task's result. The RTT is a pure function of
// (seed, probe, task), so a rerun delivers identical payloads.
func execute(seed int64, probeID string, t probes.Task) probes.Result {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", seed, probeID, t.ID)
	return probes.Result{
		TaskID:     t.ID,
		Experiment: t.Experiment,
		Kind:       t.Kind,
		OK:         true,
		RTTms:      5 + float64(h.Sum64()%20000)/100,
	}
}

// liveExp is one experiment submitted during the measured window.
type liveExp struct {
	country   string
	tasks     int64
	acked     int64
	submitted time.Time
	done      bool
}

// warmup runs the clients before the measured window opens, so caches
// fill and the first experiments are in flight when timing starts.
const warmup = time.Second

// fleetRun is the state of one measured window.
type fleetRun struct {
	cfg      fleetConfig
	seed     int64
	setup    *fleetSetup
	tr       *Tracer
	start    time.Time // end of the warm-up: samples count from here
	deadline time.Time

	attempted, failed atomic.Int64
	heapQuota         *heapSampler
	pace              *pacer // nil without an analyst
	// world is read-held by a client for each of its requests and
	// write-held while the speed probe runs, so the probe always runs
	// with every client paused between requests.
	world sync.RWMutex

	mu       sync.Mutex
	exps     map[string]*liveExp
	early    map[string]int64 // acks credited before the submit reply was recorded
	order    []string         // live experiment ids in submission order
	turnMs   []float64
	submitMs []float64
	errs     []string
	nextReq  int
}

// clientSamples are one client goroutine's raw per-operation samples.
type clientSamples struct {
	syncMs, httpUs, queryMs []float64
	syncs, emptySyncs       int64
	results                 int64
	acks                    []ack
}

// ack is one acknowledged sync: when it returned, relative to the
// window's start, and how many results it carried.
type ack struct {
	at time.Duration
	n  int
}

// fail records a failed operation with its reason (the first few
// reasons are kept for the report).
func (r *fleetRun) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// do sends one request through the handler and returns the ServeHTTP
// time; a 200 body is decoded into out, any other status is an error.
// bindKey, when set, makes the handler span the parent of shard calls
// the coordinator makes on the request's behalf.
func (r *fleetRun) do(method, path string, body, out any, parent int64, reqID, name, bindKey string) (time.Duration, error) {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return 0, err
		}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(raw))
	req.Header.Set("X-Request-ID", reqID)
	rec := httptest.NewRecorder()
	layer := "core.http"
	if r.cfg.federated {
		layer = "federation.http"
	}
	sp := r.tr.Open(parent, reqID, name, layer)
	if bindKey != "" {
		r.tr.Bind(bindKey, sp)
	}
	t0 := time.Now()
	r.setup.b.handler.ServeHTTP(rec, req)
	d := time.Since(t0)
	if bindKey != "" {
		r.tr.Unbind(bindKey)
	}
	r.tr.Close(sp)
	if rec.Code != http.StatusOK {
		return d, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			return d, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return d, nil
}

// submit posts one live experiment on country and records it. A
// completed experiment is replaced on its own country, so every country
// always has inFlightPerCountry experiments in flight, each carrying the
// same load.
func (r *fleetRun) submit(country string) {
	r.mu.Lock()
	r.nextReq++
	reqID := fmt.Sprintf("live-%d", r.nextReq)
	r.mu.Unlock()
	body := map[string]any{
		"request_id":  reqID,
		"owner":       benchOwner,
		"description": "live " + country,
		"assignments": assignmentsFor(r.setup.fleet, country),
	}
	start := time.Now()
	sp := r.tr.Open(0, reqID, "client.submit", "client")
	r.attempted.Add(1)
	var exp core.Experiment
	_, err := r.do(http.MethodPost, "/api/v1/experiments", body, &exp, sp, reqID, "http.submit", "")
	r.tr.Close(sp)
	if err != nil {
		r.fail("submit: %v", err)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.submitMs = append(r.submitMs, ms(time.Since(start)))
	le := &liveExp{country: country, tasks: int64(len(exp.Assignments)), submitted: start}
	le.acked = r.early[exp.ID]
	delete(r.early, exp.ID)
	r.exps[exp.ID] = le
	r.order = append(r.order, exp.ID)
}

// credit books acknowledged results against their experiments and
// returns the countries of the experiments this ack completed.
func (r *fleetRun) credit(sent []probes.Result, at time.Time) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var completed []string
	for _, res := range sent {
		le, ok := r.exps[res.Experiment]
		if !ok {
			r.early[res.Experiment]++
			continue
		}
		le.acked++
		if le.acked == le.tasks && !le.done {
			le.done = true
			if !at.Before(r.start) {
				r.turnMs = append(r.turnMs, ms(at.Sub(le.submitted)))
			}
			completed = append(completed, le.country)
		}
	}
	return completed
}

// syncProbe runs one probe round: deliver up to syncMax outbox results
// and ask for the next lease (max < 0 delivers only).
func (r *fleetRun) syncProbe(p *simProbe, max int, cs *clientSamples, n int) bool {
	k := min(len(p.outbox), syncMax)
	sent := p.outbox[:k]
	reqID := fmt.Sprintf("%s#%d", p.id, n)
	start := time.Now()
	sp := r.tr.Open(0, reqID, "client.sync", "client")
	r.attempted.Add(1)
	var resp core.SyncResponse
	d, err := r.do(http.MethodPost, "/api/v1/probes/sync",
		core.SyncRequest{ProbeID: p.id, Results: sent, Max: max}, &resp, sp, reqID, "http.sync", p.id)
	r.tr.Close(sp)
	now := time.Now()
	if err != nil {
		r.fail("sync: %v", err)
		return false
	}
	if resp.Accepted != k {
		r.fail("sync %s: %d of %d results accepted", p.id, resp.Accepted, k)
		return false
	}
	if cs != nil {
		r.heapQuota.progress(int64(k))
	}
	if cs != nil && !now.Before(r.start) {
		cs.syncMs = append(cs.syncMs, ms(now.Sub(start)))
		cs.httpUs = append(cs.httpUs, float64(d)/float64(time.Microsecond))
		cs.syncs++
		cs.results += int64(k)
		cs.acks = append(cs.acks, ack{now.Sub(r.start), k})
		if k == 0 && len(resp.Tasks) == 0 {
			cs.emptySyncs++
		}
	}
	completed := r.credit(sent, now)
	p.outbox = append(p.outbox[:0], p.outbox[k:]...)
	for _, t := range resp.Tasks {
		p.outbox = append(p.outbox, execute(r.seed, p.id, t))
	}
	// Closed loop on the researcher side too: every completed experiment
	// is replaced at once on its country, keeping inFlightPerCountry in
	// flight there.
	for _, country := range completed {
		if !time.Now().Before(r.deadline) {
			break
		}
		r.submit(country)
	}
	return true
}

// shareFleet splits the fleet between n probe clients by country, so
// each country's probes are all driven by one client. A country's
// probes then advance through its experiments together: no client can
// run ahead of another's stragglers on the same experiments and sit
// idle, syncing empty, until they complete.
func shareFleet(fleet []*simProbe, n int) [][]*simProbe {
	owner := make(map[string]int, len(fleetCountries))
	for i, c := range fleetCountries {
		owner[c] = i % n
	}
	shares := make([][]*simProbe, n)
	for _, p := range fleet {
		shares[owner[p.country]] = append(shares[owner[p.country]], p)
	}
	return shares
}

// probeClient cycles through its share of the fleet until the deadline.
func (r *fleetRun) probeClient(mine []*simProbe, cs *clientSamples) {
	n := 0
	for {
		for _, p := range mine {
			if !time.Now().Before(r.deadline) || !r.pace.beforeSync() {
				return
			}
			n++
			r.world.RLock()
			r.syncProbe(p, syncMax, cs, n)
			r.world.RUnlock()
			r.pace.afterSync()
		}
	}
}

// analystClient loops federated aggregate queries over the preloaded
// experiments, checking every answer is complete and not degraded.
func (r *fleetRun) analystClient(cs *clientSamples) {
	for i := 0; time.Now().Before(r.deadline) && r.pace.beforeQuery(int64(i)); i++ {
		pl := r.setup.preload[i%len(r.setup.preload)]
		reqID := fmt.Sprintf("query-%d", i)
		path := "/api/v1/query?op=aggregate&group_by=country_asn&experiment=" + url.QueryEscape(pl.id)
		r.world.RLock()
		start := time.Now()
		sp := r.tr.Open(0, reqID, "client.query", "client")
		r.attempted.Add(1)
		var rep struct {
			store.AggReport
			federation.QueryMeta
		}
		_, err := r.do(http.MethodGet, path, nil, &rep, sp, reqID, "http.query", queryKey)
		r.tr.Close(sp)
		d := time.Since(start)
		r.world.RUnlock()
		switch {
		case err != nil:
			r.fail("query: %v", err)
		case rep.Degraded:
			r.fail("query %s: degraded (missing %v)", pl.id, rep.ShardsMissing)
		case rep.Matched != pl.tasks:
			r.fail("query %s: matched %d, want %d", pl.id, rep.Matched, pl.tasks)
		case !start.Before(r.start):
			cs.queryMs = append(cs.queryMs, ms(d))
		}
		r.pace.afterQuery()
	}
}

// pacer holds fed-query-mix to a fixed mix of reads and writes: the
// analyst starts query i once the probe client has finished i*every
// syncs, and the probe client may run at most every syncs past the
// queries finished. So query i runs beside syncs i*every to
// (i+1)*every-1 and no others: the two clients still run at the same
// time, but how much of each a window holds, and what each query
// overlaps, no longer depend on which client the scheduler or the
// store's lock happens to favour. A nil pacer never waits.
type pacer struct {
	every          int64
	mu             sync.Mutex
	cond           *sync.Cond
	syncs, queries int64
	closed         bool
}

func newPacer(every int64) *pacer {
	p := &pacer{every: every}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// beforeSync waits for the probe client's turn; false once closed.
func (p *pacer) beforeSync() bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed && p.syncs >= (p.queries+1)*p.every {
		p.cond.Wait()
	}
	return !p.closed
}

func (p *pacer) afterSync() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.syncs++
	p.mu.Unlock()
	p.cond.Broadcast()
}

// beforeQuery waits until query i is due; false once closed.
func (p *pacer) beforeQuery(i int64) bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.closed && p.syncs < i*p.every {
		p.cond.Wait()
	}
	return !p.closed
}

func (p *pacer) afterQuery() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.queries++
	p.mu.Unlock()
	p.cond.Broadcast()
}

// close releases both clients for good.
func (p *pacer) close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// drain delivers every outstanding result without leasing more, so the
// audit can require zero open leases.
func (r *fleetRun) drain() {
	for _, p := range r.setup.fleet {
		for len(p.outbox) > 0 {
			if !r.syncProbe(p, -1, nil, 0) {
				return
			}
		}
	}
}

// fleetResult is what one measured window produced.
type fleetResult struct {
	from              time.Time // start of the measured window
	wall              time.Duration
	clients           int
	syncMs, httpUs    []float64
	acks              []ack
	queryMs, turnMs   []float64
	submitMs          []float64
	syncs, emptySyncs int64
	results           int64
	attempted, failed int64
	heapPeak          uint64
	errs              []string // failed operations, then gate violations
	deltas            *fleetDeltas
	slowest           map[string][]obs.TraceView
}

// runFleet measures one window of seconds on a finished setup, drains,
// and audits.
func runFleet(s *fleetSetup, cfg fleetConfig, seed int64, seconds int, tr *Tracer, speed *speedProbe) (*fleetResult, error) {
	r := &fleetRun{
		cfg:   cfg,
		seed:  seed,
		setup: s,
		tr:    tr,
		exps:  make(map[string]*liveExp),
		early: make(map[string]int64),
	}
	for _, ts := range s.b.traced {
		ts.tr.Store(tr)
	}
	r.heapQuota = startHeapSampler(cfg.heapQuota)
	r.start = time.Now().Add(warmup)
	r.deadline = r.start.Add(time.Duration(seconds) * time.Second)
	first := rand.New(rand.NewSource(seed)).Intn(len(fleetCountries))
	for i := 0; i < inFlightPerCountry*len(fleetCountries); i++ {
		r.submit(fleetCountries[(first+i)%len(fleetCountries)])
	}
	nClients := cfg.probeClients
	if cfg.analyst {
		nClients++
		r.pace = newPacer(syncsPerQuery)
		stopPace := time.AfterFunc(time.Until(r.deadline), r.pace.close)
		defer stopPace.Stop()
	}
	samples := make([]clientSamples, nClients)
	var wg sync.WaitGroup
	for i, mine := range shareFleet(s.fleet, cfg.probeClients) {
		wg.Add(1)
		go func(mine []*simProbe, cs *clientSamples) {
			defer wg.Done()
			r.probeClient(mine, cs)
		}(mine, &samples[i])
	}
	if cfg.analyst {
		wg.Add(1)
		go func(cs *clientSamples) {
			defer wg.Done()
			r.analystClient(cs)
		}(&samples[nClients-1])
	}
	// The speed probe pauses the clients every speedEvery until the
	// deadline; only samples inside the window count.
	probe := make(chan struct{})
	go func() {
		defer close(probe)
		tick := time.NewTicker(speedEvery)
		defer tick.Stop()
		for now := range tick.C {
			if !now.Before(r.deadline) {
				return
			}
			r.world.Lock()
			if !now.Before(r.start) {
				speed.sample()
			}
			r.world.Unlock()
		}
	}()
	// The deltas cover the measured window only: read the exported state
	// once the warm-up is over.
	time.Sleep(time.Until(r.start))
	before, berr := snapshotFleet(s.b, false)
	wg.Wait()
	wall := time.Since(r.start)
	<-probe
	if berr != nil {
		return nil, berr
	}
	heapPeak := r.heapQuota.stop()
	// Nothing after the window is traced: the drain and audits below
	// are bookkeeping, not workload.
	r.tr = nil
	for _, ts := range s.b.traced {
		ts.tr.Store(nil)
	}
	after, err := snapshotFleet(s.b, true)
	if err != nil {
		return nil, err
	}

	res := &fleetResult{from: r.start, wall: wall, clients: nClients, heapPeak: heapPeak}
	for _, cs := range samples {
		res.syncMs = append(res.syncMs, cs.syncMs...)
		res.acks = append(res.acks, cs.acks...)
		res.httpUs = append(res.httpUs, cs.httpUs...)
		res.queryMs = append(res.queryMs, cs.queryMs...)
		res.syncs += cs.syncs
		res.emptySyncs += cs.emptySyncs
		res.results += cs.results
	}
	res.deltas = diffFleet(before, after)
	r.mu.Lock()
	res.turnMs = append([]float64(nil), r.turnMs...)
	res.submitMs = append([]float64(nil), r.submitMs...)
	r.mu.Unlock()

	r.drain()
	res.attempted, res.failed = r.attempted.Load(), r.failed.Load()
	res.slowest = make(map[string][]obs.TraceView)
	for i, c := range s.b.ctrls {
		res.slowest[fmt.Sprintf("controller-%d", i)] = c.Traces().Slowest(10)
	}
	// The clients are done: r's books are no longer shared.
	res.errs = append(r.errs, auditExactlyOnce(s.b.ctrls, s.acked+r.totalAcked())...)
	res.errs = append(res.errs, auditAggregates(s.b.handler, s.preload, r.exps, r.order)...)
	return res, nil
}

// totalAcked is every live result acknowledged, window and drain.
func (r *fleetRun) totalAcked() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, le := range r.exps {
		n += le.acked
	}
	for _, v := range r.early {
		n += v
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
