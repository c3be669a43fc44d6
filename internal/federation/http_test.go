package federation

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// The coordinator's HTTP surface must be indistinguishable from a
// single controller's to the existing client — until a shard dies,
// when clients see 503 shard_unavailable (with Retry-After, without
// tripping their breaker) on that shard's keys and degraded partial
// query results elsewhere.

func newHTTPHarness(t *testing.T, n int) (*core.Client, *Coordinator, []*LocalShard) {
	t.Helper()
	c, shards := newHarness(t, n, "", testConfig())
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	cl := core.NewClientSeeded(srv.URL, 7)
	cl.Sleep = func(time.Duration) {} // no real sleeping in retries
	return cl, c, shards
}

func TestHTTPEndToEndFlow(t *testing.T) {
	cl, _, _ := newHTTPHarness(t, 3)
	ps := testProbes(8)
	for _, p := range ps {
		if err := cl.Register(p); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	exp, err := cl.Submit(testOwner, "http flow", testAssignments(ps, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if exp.Status != core.StatusApproved {
		t.Fatalf("status %s, want approved", exp.Status)
	}
	done := 0
	for _, p := range ps {
		for {
			tasks, err := cl.LeaseTasks(p.ID, 4)
			if err != nil {
				t.Fatalf("LeaseTasks: %v", err)
			}
			if len(tasks) == 0 {
				break
			}
			rs := make([]probes.Result, 0, len(tasks))
			for _, task := range tasks {
				rs = append(rs, probes.Result{
					TaskID: task.ID, Experiment: task.Experiment,
					ProbeID: p.ID, Kind: task.Kind, OK: true, RTTms: 12,
				})
			}
			if err := cl.SubmitResults(p.ID, rs); err != nil {
				t.Fatalf("SubmitResults: %v", err)
			}
			done += len(rs)
			if err := cl.Heartbeat(p.ID); err != nil {
				t.Fatalf("Heartbeat: %v", err)
			}
		}
	}
	if done != len(ps) {
		t.Fatalf("completed %d tasks, want %d", done, len(ps))
	}
	// Query surface: scan + aggregate with clean (non-degraded) meta.
	recs, _, meta, err := cl.QueryScanMeta(store.Filter{Experiment: exp.ID}, 0, "")
	if err != nil {
		t.Fatalf("QueryScanMeta: %v", err)
	}
	if meta.Degraded || len(recs) != done {
		t.Fatalf("scan: degraded=%v len=%d want %d", meta.Degraded, len(recs), done)
	}
	rep, meta, err := cl.QueryAggregateMeta(store.Filter{}, store.GroupCountry)
	if err != nil || meta.Degraded {
		t.Fatalf("QueryAggregateMeta: err=%v degraded=%v", err, meta.Degraded)
	}
	if rep.Matched != int64(done) {
		t.Fatalf("aggregate matched %d, want %d", rep.Matched, done)
	}
	// Experiment results page maps records to bare results.
	rs, err := cl.Results(exp.ID)
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	if len(rs) != done {
		t.Fatalf("experiment results %d, want %d", len(rs), done)
	}
	// Shard map reports three live shards at epoch 0.
	infos, err := cl.ShardMap()
	if err != nil {
		t.Fatalf("ShardMap: %v", err)
	}
	if len(infos) != 3 {
		t.Fatalf("shard map has %d entries, want 3", len(infos))
	}
	for _, si := range infos {
		if si.Epoch != 0 || si.Health != string(core.ProbeAlive) {
			t.Fatalf("shard %+v, want epoch 0 alive", si)
		}
	}
	if _, err := cl.Health(); err != nil {
		t.Fatalf("Health: %v", err)
	}
	if _, err := cl.Stats(); err != nil {
		t.Fatalf("Stats: %v", err)
	}
}

func TestHTTPDeadShardIs503NotBreakerFood(t *testing.T) {
	cl, _, shards := newHTTPHarness(t, 2)
	cl.BreakerThreshold = 1 // hair trigger: any transport failure would open it
	ps := testProbes(8)
	for _, p := range ps {
		if err := cl.Register(p); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	for _, ls := range shards {
		ls.Kill()
	}
	var apiErr *core.APIError
	for _, p := range ps {
		_, err := cl.LeaseTasks(p.ID, 4)
		if err == nil {
			t.Fatalf("lease for %s succeeded with every shard dead", p.ID)
		}
		if !errors.As(err, &apiErr) {
			t.Fatalf("lease error %v is not an APIError", err)
		}
		if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != core.ErrCodeShardUnavailable {
			t.Fatalf("got %d %s, want 503 %s", apiErr.Status, apiErr.Code, core.ErrCodeShardUnavailable)
		}
		if apiErr.RetryAfter <= 0 {
			t.Fatalf("503 carried RetryAfter %d, want > 0", apiErr.RetryAfter)
		}
	}
	ctrs := cl.ResilienceCounters()
	if ctrs["breaker_open_total"] != 0 {
		t.Fatalf("server-side 503s opened the client breaker: %v", ctrs)
	}
	if ctrs["retry_after_honored"] == 0 {
		t.Fatalf("client never honored the coordinator's Retry-After: %v", ctrs)
	}
}

func TestHTTPDegradedQueryAnnotation(t *testing.T) {
	cl, c, shards := newHTTPHarness(t, 3)
	ps := testProbes(12)
	exp, accepted := pumpResults(t, c, ps, 1)
	shards[1].Kill()
	recs, _, meta, err := cl.QueryScanMeta(store.Filter{Experiment: exp.ID}, 0, "")
	if err != nil {
		t.Fatalf("degraded scan must be 200, got %v", err)
	}
	if !meta.Degraded || len(meta.ShardsMissing) != 1 || meta.ShardsMissing[0] != "shard-1" {
		t.Fatalf("meta = %+v, want degraded with shard-1 missing", meta)
	}
	if len(recs) >= accepted {
		t.Fatalf("degraded scan returned %d records, want < %d", len(recs), accepted)
	}
	if _, meta, err := cl.QueryAggregateMeta(store.Filter{}, store.GroupNone); err != nil || !meta.Degraded {
		t.Fatalf("degraded aggregate: err=%v meta=%+v", err, meta)
	}
	// Health degrades but stays 200.
	h, err := cl.Health()
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status == "ok" {
		t.Fatal("health reports ok with a dead shard")
	}
}

func TestHTTPErrorSurface(t *testing.T) {
	cl, _, _ := newHTTPHarness(t, 2)
	var apiErr *core.APIError
	// Unknown federated experiment is a 404.
	if _, err := cl.Experiment("fexp-9999"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown experiment: %v", err)
	}
	if _, err := cl.Results("fexp-9999"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown experiment results: %v", err)
	}
	// Wrong method gets 405 + Allow; bad op and bad params get 400.
	srv := httptest.NewServer(newHarnessHandler(t))
	defer srv.Close()
	for _, tc := range []struct {
		method, path string
		wantStatus   int
	}{
		{http.MethodDelete, "/api/v1/experiments", http.StatusMethodNotAllowed},
		{http.MethodGet, "/api/v1/query?op=frobnicate", http.StatusBadRequest},
		{http.MethodGet, "/api/v1/query?op=scan&limit=-2", http.StatusBadRequest},
		{http.MethodGet, "/api/v1/query?op=scan&asn=xyz", http.StatusBadRequest},
		{http.MethodGet, "/api/v1/query?op=scan&cursor=garbage", http.StatusBadRequest},
		{http.MethodGet, "/api/v1/nope", http.StatusNotFound},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
		if tc.wantStatus == http.StatusMethodNotAllowed && resp.Header.Get("Allow") == "" {
			t.Fatalf("%s %s: 405 without Allow header", tc.method, tc.path)
		}
		if resp.Header.Get("X-Request-ID") == "" {
			t.Fatalf("%s %s: response without request id", tc.method, tc.path)
		}
	}
}

func newHarnessHandler(t *testing.T) http.Handler {
	t.Helper()
	c, _ := newHarness(t, 2, "", testConfig())
	return c.Handler()
}

func TestHTTPAdmissionSheds(t *testing.T) {
	cfg := testConfig()
	cfg.Admission = core.AdmissionConfig{
		RouteRates: map[string]core.RateLimit{"stats": {PerTick: 1, Burst: 2}},
	}
	c, _ := newHarness(t, 2, "", cfg)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	shed := 0
	for i := 0; i < 10; i++ {
		resp, err := http.Get(srv.URL + "/api/v1/stats")
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("admission gate never shed low-priority traffic")
	}
	// Tick refills the gate.
	c.Tick(1)
	resp, err := http.Get(srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatalf("stats after refill: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refill stats status %d, want 200", resp.StatusCode)
	}
}

// filterWorld loads the same 12 results — 4 probes over 3 ticks, with
// every filterable dimension varied — into a coordinator over two
// LocalShards and into one plain controller. It returns both handlers
// and each side's experiment id.
func filterWorld(t *testing.T) (fed, plain http.Handler, fedExp, plainExp string) {
	t.Helper()
	coord, _ := newHarness(t, 2, "", testConfig())
	ctrl := core.NewController(testOwner)
	ps := testProbes(4)
	as := testAssignments(ps, 3)
	for _, p := range ps {
		if err := coord.Register(p); err != nil {
			t.Fatalf("coordinator Register: %v", err)
		}
		if err := ctrl.RegisterProbe(p); err != nil {
			t.Fatalf("controller Register: %v", err)
		}
	}
	fexp, err := coord.Submit("filters", testOwner, "filter parity", as)
	if err != nil {
		t.Fatalf("coordinator Submit: %v", err)
	}
	cexp, err := ctrl.SubmitExperiment(testOwner, "filter parity", as)
	if err != nil {
		t.Fatalf("controller Submit: %v", err)
	}
	verdicts := []string{"ok", "dns_blocked", "tcp_blocked"}
	chains := []string{"stub>cache>cloud>authority", "stub>cache>forwarder>authority"}
	// Results carry only probe- and round-derived fields, so both sides
	// store the same records apart from task and experiment ids.
	result := func(task probes.Task, probe, round int) probes.Result {
		j := 3*probe + round
		return probes.Result{
			TaskID: task.ID, Experiment: task.Experiment, ProbeID: ps[probe].ID,
			Kind: task.Kind, OK: true, RTTms: float64(10 + j),
			Verdict: verdicts[j%3], ResolverChain: chains[j%2], ECS: j%4 == 0,
		}
	}
	for round := 0; round < 3; round++ {
		coord.Tick(1) // records land at ticks 1, 2, 3
		ctrl.Tick(1)
		for i, p := range ps {
			ft, err := coord.LeaseTasks(p.ID, 1)
			if err != nil || len(ft) != 1 {
				t.Fatalf("coordinator lease %s round %d: %d tasks, err=%v", p.ID, round, len(ft), err)
			}
			if _, err := coord.SubmitResults(p.ID, []probes.Result{result(ft[0], i, round)}); err != nil {
				t.Fatalf("coordinator SubmitResults: %v", err)
			}
			ct := ctrl.LeaseTasks(p.ID, 1)
			if len(ct) != 1 {
				t.Fatalf("controller lease %s round %d: %d tasks", p.ID, round, len(ct))
			}
			if _, err := ctrl.SubmitResults(p.ID, []probes.Result{result(ct[0], i, round)}); err != nil {
				t.Fatalf("controller SubmitResults: %v", err)
			}
		}
	}
	return coord.Handler(), ctrl.Handler(), fexp.ID, cexp.ID
}

// queryCount runs one /api/v1/query against h and returns how many
// records matched: the scan's item count or the aggregate's matched.
func queryCount(t *testing.T, h http.Handler, op string, q url.Values) int {
	t.Helper()
	v := url.Values{"op": {op}}
	for k, vs := range q {
		v[k] = vs
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/query?"+v.Encode(), nil))
	if w.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d body=%s", op, v.Encode(), w.Code, w.Body.String())
	}
	var body struct {
		Items   []json.RawMessage `json:"items"`
		Matched int               `json:"matched"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s %s: %v", op, v.Encode(), err)
	}
	if op == "scan" {
		return len(body.Items)
	}
	return body.Matched
}

// TestFederatedFiltersMatchController requires a coordinator to apply
// every record filter a controller applies: a federated answer may be
// partial (and then says so), never silently wider.
func TestFederatedFiltersMatchController(t *testing.T) {
	fed, plain, fedExp, plainExp := filterWorld(t)
	const total = 12
	for _, tc := range []struct {
		query     string
		selective bool // a real value: must match some but not all records
	}{
		{"", false},
		{"experiment={exp}", false},
		{"country=KE", true},
		{"asn=64501", true},
		{"kind=ping", false},
		{"verdict=dns_blocked", true},
		{"verdict=no_such_verdict", false},
		{"resolver_chain=stub>cache>cloud>authority", true},
		{"resolver_chain=no>such>chain", false},
		{"ecs=true", true},
		{"ecs=false", true},
		{"from_tick=2", true},
		{"to_tick=2", true},
		{"from_tick=2&to_tick=2", true},
		{"verdict=ok&ecs=false&resolver_chain=stub>cache>forwarder>authority", true},
	} {
		q, err := url.ParseQuery(strings.ReplaceAll(tc.query, "{exp}", plainExp))
		if err != nil {
			t.Fatal(err)
		}
		fq, _ := url.ParseQuery(strings.ReplaceAll(tc.query, "{exp}", fedExp))
		for _, op := range []string{"scan", "aggregate"} {
			want := queryCount(t, plain, op, q)
			if got := queryCount(t, fed, op, fq); got != want {
				t.Errorf("%s ?%s: coordinator matched %d, controller %d", op, tc.query, got, want)
			}
			if tc.selective && (want == 0 || want == total) {
				t.Errorf("%s ?%s: controller matched %d of %d; the filter selects nothing", op, tc.query, want, total)
			}
		}
	}
	for name, h := range map[string]http.Handler{"coordinator": fed, "controller": plain} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/query?op=scan&ecs=maybe", nil))
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		_ = json.Unmarshal(w.Body.Bytes(), &env)
		if w.Code != http.StatusBadRequest || env.Error.Code != core.ErrCodeBadRequest {
			t.Errorf("%s: ecs=maybe got %d %q, want 400 %s", name, w.Code, env.Error.Code, core.ErrCodeBadRequest)
		}
	}
}
