package federation

// http.go is the coordinator's front end: the v1 API surface re-served
// over the shard tier through internal/core's shared router, query
// parsers, and envelope writers. Envelopes, request ids, page shapes,
// body caps, and filters are byte-identical to a single controller's,
// so probes and analysts cannot tell a coordinator from a controller —
// until a shard dies, when they see 503 shard_unavailable on that
// shard's keys and degraded-but-correct partial query results instead
// of a dead platform.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// routes is the coordinator's v1 table, bound to c. Every name it
// shares with core.APIRoutes() keeps that route's method, pattern, and
// priority (pinned by TestCoordinatorRoutesMatchCore); "shards" is the
// coordinator's own.
func (c *Coordinator) routes() []core.Route {
	return []core.Route{
		{Name: "probe_register", Method: http.MethodPost, Pattern: "/api/v1/probes/register", Priority: core.PriorityHigh, Handle: c.handleRegister},
		{Name: "probe_tasks", Method: http.MethodGet, Pattern: "/api/v1/probes/{id}/tasks", Priority: core.PriorityHigh, Handle: c.handleProbeTasks},
		{Name: "probe_results", Method: http.MethodPost, Pattern: "/api/v1/probes/{id}/results", Priority: core.PriorityHigh, Handle: c.handleProbeResults},
		{Name: "probe_heartbeat", Method: http.MethodPost, Pattern: "/api/v1/probes/{id}/heartbeat", Priority: core.PriorityHigh, Handle: c.handleProbeHeartbeat},
		{Name: "probe_sync", Method: http.MethodPost, Pattern: "/api/v1/probes/sync", Priority: core.PriorityHigh, Handle: c.handleProbeSync},
		{Name: "experiment_submit", Method: http.MethodPost, Pattern: "/api/v1/experiments", Priority: core.PriorityHigh, Handle: c.handleSubmit},
		{Name: "experiment_get", Method: http.MethodGet, Pattern: "/api/v1/experiments/{id}", Priority: core.PriorityLow, Handle: c.handleExperimentGet},
		{Name: "experiment_approve", Method: http.MethodPost, Pattern: "/api/v1/experiments/{id}/approve", Priority: core.PriorityHigh, Handle: c.handleExperimentApprove},
		{Name: "experiment_results", Method: http.MethodGet, Pattern: "/api/v1/experiments/{id}/results", Priority: core.PriorityLow, Handle: c.handleExperimentResults},
		{Name: "query", Method: http.MethodGet, Pattern: "/api/v1/query", Priority: core.PriorityLow, Handle: c.handleQuery},
		{Name: "health", Method: http.MethodGet, Pattern: "/api/v1/health", Priority: core.PriorityHigh, Handle: c.handleHealth},
		{Name: "stats", Method: http.MethodGet, Pattern: "/api/v1/stats", Priority: core.PriorityLow, Handle: c.handleStats},
		{Name: "shards", Method: http.MethodGet, Pattern: "/api/v1/shards", Priority: core.PriorityLow, Handle: c.handleShards},
		{Name: "debug_traces", Method: http.MethodGet, Pattern: "/api/v1/debug/traces", Priority: core.PriorityLow, Handle: c.handleDebugTraces},
		{Name: "metrics", Method: http.MethodGet, Pattern: "/metrics", Priority: core.PriorityHigh, Handle: c.handleMetrics},
	}
}

// page mirrors the v1 list-response shape, extended with the federated
// degradation annotation (absent on complete responses).
type page struct {
	Items      interface{} `json:"items"`
	NextCursor string      `json:"next_cursor,omitempty"`
	QueryMeta
}

// Handler serves the coordinator's v1 surface through core's shared
// router: admission runs through the coordinator's own gate (refilled
// by Tick) with the same priorities as a controller, so probe traffic
// sheds last, and every request lands in the per-route
// obs_http_request_seconds histogram and the trace ring.
func (c *Coordinator) Handler() http.Handler {
	return core.NewRouter(c.routes(), c.adm, c.reg, c.traces, core.DefaultSlowRequest)
}

// writeShardErr maps routing-layer failures onto the v1 envelope: a
// down or deadline-blown shard is 503 shard_unavailable with a
// Retry-After (the client retries without tripping its breaker), a
// remote shard's own API error passes through status and code intact,
// and anything else is the shard rejecting the request (400).
func (c *Coordinator) writeShardErr(w http.ResponseWriter, err error) {
	var apiErr *core.APIError
	switch {
	case errors.Is(err, ErrUnknownExperiment):
		core.WriteAPIError(w, http.StatusNotFound, core.ErrCodeNotFound, err)
	case errors.Is(err, ErrShardDown), errors.Is(err, ErrShardTimeout), errors.Is(err, ErrNoShards):
		w.Header().Set("Retry-After", strconv.Itoa(c.cfg.RetryAfterSeconds))
		core.WriteAPIError(w, http.StatusServiceUnavailable, core.ErrCodeShardUnavailable, err)
	case errors.As(err, &apiErr):
		if apiErr.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(apiErr.RetryAfter))
		}
		code := apiErr.Code
		if code == "" {
			code = core.ErrCodeUnavailable
		}
		core.WriteAPIError(w, apiErr.Status, code, err)
	default:
		core.WriteAPIError(w, http.StatusBadRequest, core.ErrCodeBadRequest, err)
	}
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	var p core.ProbeInfo
	if !core.DecodeBody(w, r, &p) {
		return
	}
	if err := c.Register(p); err != nil {
		c.writeShardErr(w, err)
		return
	}
	core.WriteJSON(w, http.StatusOK, map[string]string{"id": p.ID})
}

func (c *Coordinator) handleProbeTasks(w http.ResponseWriter, r *http.Request, p core.PathParams) {
	max := core.DefaultLeaseMax
	if s := r.URL.Query().Get("max"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			core.WriteAPIError(w, http.StatusBadRequest, core.ErrCodeBadRequest,
				fmt.Errorf("max must be a non-negative integer, got %q", s))
			return
		}
		if n > 0 {
			max = n
		}
	}
	tasks, err := c.LeaseTasks(p["id"], max)
	if err != nil {
		c.writeShardErr(w, err)
		return
	}
	if tasks == nil {
		tasks = []probes.Task{}
	}
	core.WriteJSON(w, http.StatusOK, tasks)
}

func (c *Coordinator) handleProbeResults(w http.ResponseWriter, r *http.Request, p core.PathParams) {
	var rs []probes.Result
	if !core.DecodeBody(w, r, &rs) {
		return
	}
	accepted, err := c.SubmitResults(p["id"], rs)
	if err != nil {
		c.writeShardErr(w, err)
		return
	}
	core.WriteJSON(w, http.StatusOK, map[string]int{"accepted": accepted, "received": len(rs)})
}

func (c *Coordinator) handleProbeHeartbeat(w http.ResponseWriter, r *http.Request, p core.PathParams) {
	if err := c.Heartbeat(p["id"]); err != nil {
		if errors.Is(err, ErrShardDown) || errors.Is(err, ErrShardTimeout) || errors.Is(err, ErrNoShards) {
			c.writeShardErr(w, err)
			return
		}
		core.WriteAPIError(w, http.StatusNotFound, core.ErrCodeNotFound, err)
		return
	}
	core.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleProbeSync serves the batched hot path through the shard tier.
// The ?wait= long-poll parameter is accepted for wire compatibility but
// not forwarded: parking belongs to the queue-owning shard, and the
// coordinator's per-shard deadline (QueryDeadline, ~2s) would cut a 30s
// park short — so a coordinator answers immediately and the probe's
// wait loop becomes a paced retry. If the owning shard is down the
// batch was not durably accepted: 503 + Retry-After, and the probe's
// spool (which only acks on success) retains it.
func (c *Coordinator) handleProbeSync(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	var req core.SyncRequest
	if !core.DecodeBody(w, r, &req) {
		return
	}
	if req.ProbeID == "" {
		core.WriteAPIError(w, http.StatusBadRequest, core.ErrCodeBadRequest,
			errors.New("probe_id is required"))
		return
	}
	resp, err := c.Sync(req)
	if err != nil {
		if errors.Is(err, core.ErrUnknownProbe) {
			core.WriteAPIError(w, http.StatusNotFound, core.ErrCodeNotFound, err)
			return
		}
		c.writeShardErr(w, err)
		return
	}
	if resp.Tasks == nil {
		resp.Tasks = []probes.Task{}
	}
	core.WriteJSON(w, http.StatusOK, resp)
}

// fedSubmitRequest mirrors the controller's submission body (the "id"
// field is not accepted here — federated ids are coordinator-minted).
type fedSubmitRequest struct {
	RequestID   string              `json:"request_id,omitempty"`
	Owner       string              `json:"owner"`
	Description string              `json:"description"`
	Assignments []probes.Assignment `json:"assignments"`
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	var req fedSubmitRequest
	if !core.DecodeBody(w, r, &req) {
		return
	}
	exp, err := c.Submit(req.RequestID, req.Owner, req.Description, req.Assignments)
	if err != nil {
		c.writeShardErr(w, err)
		return
	}
	core.WriteJSON(w, http.StatusOK, exp)
}

func (c *Coordinator) handleExperimentGet(w http.ResponseWriter, r *http.Request, p core.PathParams) {
	exp, err := c.Experiment(p["id"])
	if err != nil {
		c.writeShardErr(w, err)
		return
	}
	core.WriteJSON(w, http.StatusOK, exp)
}

func (c *Coordinator) handleExperimentApprove(w http.ResponseWriter, r *http.Request, p core.PathParams) {
	if err := c.Approve(p["id"]); err != nil {
		c.writeShardErr(w, err)
		return
	}
	core.WriteJSON(w, http.StatusOK, map[string]string{"status": string(core.StatusApproved)})
}

func (c *Coordinator) handleExperimentResults(w http.ResponseWriter, r *http.Request, p core.PathParams) {
	q := r.URL.Query()
	limit, ok := core.ParseLimit(w, q.Get("limit"))
	if !ok {
		return
	}
	c.mu.Lock()
	_, known := c.fedExps[p["id"]]
	c.mu.Unlock()
	if !known {
		c.writeShardErr(w, ErrUnknownExperiment)
		return
	}
	recs, next, meta, err := c.ScanPage(store.Filter{Experiment: p["id"]}, limit, q.Get("cursor"))
	if err != nil {
		c.writeShardErr(w, err)
		return
	}
	rs := make([]probes.Result, 0, len(recs))
	for _, rec := range recs {
		rs = append(rs, rec.Result)
	}
	core.WriteJSON(w, http.StatusOK, page{Items: rs, NextCursor: next, QueryMeta: meta})
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	q := r.URL.Query()
	f, ok := core.ParseFilter(w, q)
	if !ok {
		return
	}
	switch op := q.Get("op"); op {
	case "", "aggregate":
		rep, meta, err := c.Aggregate(store.AggQuery{Filter: f, GroupBy: q.Get("group_by")})
		if err != nil {
			c.writeShardErr(w, err)
			return
		}
		core.WriteJSON(w, http.StatusOK, struct {
			store.AggReport
			QueryMeta
		}{rep, meta})
	case "scan":
		limit, ok := core.ParseLimit(w, q.Get("limit"))
		if !ok {
			return
		}
		recs, next, meta, err := c.ScanPage(f, limit, q.Get("cursor"))
		if err != nil {
			c.writeShardErr(w, err)
			return
		}
		if recs == nil {
			recs = []store.Record{}
		}
		core.WriteJSON(w, http.StatusOK, page{Items: recs, NextCursor: next, QueryMeta: meta})
	default:
		core.WriteAPIError(w, http.StatusBadRequest, core.ErrCodeBadRequest,
			fmt.Errorf("unknown op %q (want aggregate or scan)", op))
	}
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	core.WriteJSON(w, http.StatusOK, c.Health())
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	core.WriteJSON(w, http.StatusOK, c.Stats())
}

func (c *Coordinator) handleShards(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	core.WriteJSON(w, http.StatusOK, page{Items: c.ShardStatuses()})
}

func (c *Coordinator) handleDebugTraces(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	core.ServeTraces(c.traces, w, r)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request, _ core.PathParams) {
	core.ServeMetrics(c.reg, w)
}
