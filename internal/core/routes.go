package core

// routes.go is the controller's v1 API surface: a declarative,
// method-aware route table served by the shared router (router.go),
// which enforces methods (405 + Allow), runs admission, applies the
// request body cap (413), assigns request ids, and tags each request
// with the route name used by latency histograms and traces. The same
// table self-describes the API: API.md is generated from it
// (cmd/apidoc), and the conformance test walks it.

import "net/http"

// paramDoc documents one path or query parameter for API.md.
type paramDoc struct {
	Name string
	Doc  string
}

// routeDef is one endpoint: routing metadata, self-description for the
// generated API reference, and the handler.
type routeDef struct {
	Name     string // histogram/trace tag, e.g. "probe_tasks"
	Method   string
	Pattern  string // "/api/v1/probes/{id}/tasks"
	Summary  string
	Query    []paramDoc // query parameters
	Request  string     // request body schema, "" = none
	Response string     // response body schema
	Errors   []string   // error codes beyond the universal ones
	// Priority classes the route for admission control: high-priority
	// field traffic is shed last, low-priority analyst traffic first
	// (see admission.go).
	Priority RoutePriority
	handle   func(*Controller, http.ResponseWriter, *http.Request, PathParams)
}

// page is the uniform list-response shape of the v1 API: every list
// endpoint returns {"items": [...], "next_cursor": "..."} (next_cursor
// omitted on the last page).
type page struct {
	Items      interface{} `json:"items"`
	NextCursor string      `json:"next_cursor,omitempty"`
}

// apiRoutes is the v1 route table. Order is the order API.md documents
// them in.
var apiRoutes = []routeDef{
	{
		Name: "probe_register", Method: http.MethodPost, Pattern: "/api/v1/probes/register",
		Summary:  "Register (or update) a vantage point. Registration counts as probe contact.",
		Request:  "ProbeInfo {id, asn, country, has_wired, kind}",
		Response: `{"id": "<probe id>"}`,
		Errors:   []string{ErrCodeBadRequest, ErrCodeBodyTooLarge},
		Priority: PriorityHigh,
		handle:   (*Controller).handleRegister,
	},
	{
		Name: "probes_list", Method: http.MethodGet, Pattern: "/api/v1/probes",
		Summary:  "List registered probes sorted by id.",
		Response: "page of ProbeInfo",
		Priority: PriorityLow,
		handle:   (*Controller).handleProbes,
	},
	{
		Name: "probe_tasks", Method: http.MethodGet, Pattern: "/api/v1/probes/{id}/tasks",
		Summary: "Lease up to max queued tasks for the probe under the at-least-once lease protocol.",
		Query: []paramDoc{
			{Name: "max", Doc: "lease size cap; positive integer, 0 or omitted means the server default of 32"},
		},
		Response: "[]Task (bare array: the lease protocol payload, not a paginated list)",
		Errors:   []string{ErrCodeBadRequest, ErrCodeUnavailable},
		Priority: PriorityHigh,
		handle:   (*Controller).handleProbeTasks,
	},
	{
		Name: "probe_results", Method: http.MethodPost, Pattern: "/api/v1/probes/{id}/results",
		Summary:  "Upload a result batch. Idempotent: duplicates are deduplicated by (experiment, task).",
		Request:  "[]Result",
		Response: `{"accepted": n, "received": m}`,
		Errors:   []string{ErrCodeBadRequest, ErrCodeBodyTooLarge},
		Priority: PriorityHigh,
		handle:   (*Controller).handleProbeResults,
	},
	{
		Name: "probe_heartbeat", Method: http.MethodPost, Pattern: "/api/v1/probes/{id}/heartbeat",
		Summary:  "Record liveness contact from a probe with no lease or result traffic to piggyback on.",
		Response: `{"status": "ok"}`,
		Errors:   []string{ErrCodeNotFound},
		Priority: PriorityHigh,
		handle:   (*Controller).handleProbeHeartbeat,
	},
	{
		Name: "probe_sync", Method: http.MethodPost, Pattern: "/api/v1/probes/sync",
		Summary: "Batched probe round-trip: heartbeat + spooled result upload + task-lease ask in one request, covered by a single journal append/fsync. The fleet-scale replacement for separate heartbeat/tasks/results calls.",
		Query: []paramDoc{
			{Name: "wait", Doc: "long-poll duration (e.g. 5s, capped at 30s): with no tasks to grant, the call parks until tasks are enqueued for the probe or the deadline passes. Omitted or 0 answers immediately. Federation coordinators answer immediately regardless — parking belongs to the shard owning the probe's queue"},
		},
		Request:  `SyncRequest {probe_id, results?: [Result], max?: 0 = server default of 32, < 0 = no lease}`,
		Response: `SyncResponse {"accepted": n, "received": m, "tasks": [Task]} — accepted < received on retried uploads is dedup, not an error`,
		Errors:   []string{ErrCodeBadRequest, ErrCodeNotFound, ErrCodeBodyTooLarge},
		Priority: PriorityHigh,
		handle:   (*Controller).handleProbeSync,
	},
	{
		Name: "experiment_submit", Method: http.MethodPost, Pattern: "/api/v1/experiments",
		Summary:  "Submit an experiment for vetting. Idempotent per request_id; trusted owners are auto-approved.",
		Request:  `{"request_id"?, "id"?, "owner", "description", "assignments": [Assignment]} — id pins the experiment id (federation coordinators); omitted mints exp-NNNN`,
		Response: "Experiment",
		Errors:   []string{ErrCodeBadRequest, ErrCodeBodyTooLarge},
		Priority: PriorityHigh,
		handle:   (*Controller).handleSubmit,
	},
	{
		Name: "experiment_get", Method: http.MethodGet, Pattern: "/api/v1/experiments/{id}",
		Summary:  "Fetch one experiment's vetting status and assignments.",
		Response: "Experiment",
		Errors:   []string{ErrCodeNotFound},
		Priority: PriorityLow,
		handle:   (*Controller).handleExperimentGet,
	},
	{
		Name: "experiment_approve", Method: http.MethodPost, Pattern: "/api/v1/experiments/{id}/approve",
		Summary:  "Approve a pending experiment and schedule its tasks. Idempotent.",
		Response: `{"status": "approved"}`,
		Errors:   []string{ErrCodeBadRequest},
		Priority: PriorityHigh,
		handle:   (*Controller).handleExperimentApprove,
	},
	{
		Name: "experiment_results", Method: http.MethodGet, Pattern: "/api/v1/experiments/{id}/results",
		Summary: "Page through one experiment's collected results.",
		Query: []paramDoc{
			{Name: "limit", Doc: "page size; 0 or omitted returns everything"},
			{Name: "cursor", Doc: "opaque position from the previous page's next_cursor"},
		},
		Response: "page of Result",
		Errors:   []string{ErrCodeBadRequest},
		Priority: PriorityLow,
		handle:   (*Controller).handleExperimentResults,
	},
	{
		Name: "query", Method: http.MethodGet, Pattern: "/api/v1/query",
		Summary: "Query the results store: filtered scans and time-window aggregations.",
		Query: []paramDoc{
			{Name: "op", Doc: "aggregate (default) or scan"},
			{Name: "experiment / country / asn / kind / verdict / resolver_chain / ecs / from_tick / to_tick", Doc: "record filters; ecs is true/false; tick bounds inclusive"},
			{Name: "group_by", Doc: "aggregate only: none, country, asn, country_asn, verdict, resolver, country_resolver, resolver_chain, ecs"},
			{Name: "limit / cursor", Doc: "scan only: pagination"},
		},
		Response: `op=aggregate: AggReport; op=scan: page of Record. Served by a federation coordinator, both carry "degraded": true plus "shards_missing": [shard ids] when shards timed out or were down — the data is correct but partial, never silently wrong`,
		Errors:   []string{ErrCodeBadRequest},
		Priority: PriorityLow,
		handle:   (*Controller).handleQuery,
	},
	{
		Name: "health", Method: http.MethodGet, Pattern: "/api/v1/health",
		Summary:  "Fleet-health summary: probe liveness counts, queue and lease depth.",
		Response: "HealthReport",
		Priority: PriorityHigh,
		handle:   (*Controller).handleHealth,
	},
	{
		Name: "stats", Method: http.MethodGet, Pattern: "/api/v1/stats",
		Summary:  "Pipeline, durability, and store counters plus per-probe status.",
		Response: "StatsReport",
		Priority: PriorityLow,
		handle:   (*Controller).handleStats,
	},
	{
		Name: "debug_traces", Method: http.MethodGet, Pattern: "/api/v1/debug/traces",
		Summary: "The slowest recent requests as span trees (handler → mutator → journal fsync / store append).",
		Query: []paramDoc{
			{Name: "slowest", Doc: "how many traces to return, default 10"},
		},
		Response: "page of TraceView",
		Errors:   []string{ErrCodeBadRequest},
		Priority: PriorityLow,
		handle:   (*Controller).handleDebugTraces,
	},
	{
		Name: "metrics", Method: http.MethodGet, Pattern: "/metrics",
		Summary:  "Prometheus text exposition: route/mutator/store latency histograms and event counters, deterministically ordered.",
		Response: "Prometheus text format 0.0.4",
		Priority: PriorityHigh,
		handle:   (*Controller).handleMetrics,
	},
}

// RouteInfo is the exported self-description of one route, consumed by
// the API.md generator and the conformance test.
type RouteInfo struct {
	Name     string
	Method   string
	Pattern  string
	Summary  string
	Query    [][2]string // name, doc
	Request  string
	Response string
	Errors   []string
	Priority string // admission class: "high" or "low"
}

// APIRoutes returns the self-description of the full v1 route table in
// documentation order.
func APIRoutes() []RouteInfo {
	out := make([]RouteInfo, 0, len(apiRoutes))
	for _, rt := range apiRoutes {
		info := RouteInfo{
			Name:     rt.Name,
			Method:   rt.Method,
			Pattern:  rt.Pattern,
			Summary:  rt.Summary,
			Request:  rt.Request,
			Response: rt.Response,
			Errors:   append([]string(nil), rt.Errors...),
			Priority: rt.Priority.String(),
		}
		for _, q := range rt.Query {
			info.Query = append(info.Query, [2]string{q.Name, q.Doc})
		}
		out = append(out, info)
	}
	return out
}

// Handler exposes the controller's v1 API (see API.md, generated from
// this route table) through the shared router: every response carries
// X-Request-ID; non-2xx responses share the {"error": {code, message,
// request_id}} envelope; list responses share the {items, next_cursor}
// page shape; request bodies are bounded at MaxBodyBytes (413 beyond).
// Per-route latency lands in the obs_http_request_seconds histogram
// (GET /metrics) and every request leaves a span tree in the trace ring
// (GET /api/v1/debug/traces).
func (c *Controller) Handler() http.Handler {
	routes := make([]Route, len(apiRoutes))
	for i, def := range apiRoutes {
		handle := def.handle
		routes[i] = Route{
			Name: def.Name, Method: def.Method, Pattern: def.Pattern, Priority: def.Priority,
			Handle: func(w http.ResponseWriter, r *http.Request, p PathParams) { handle(c, w, r, p) },
		}
	}
	return NewRouter(routes, c.adm, c.reg, c.ring, c.SlowRequest)
}
