package core

// http.go holds the controller's route handlers behind the v1 route
// table in routes.go. Method enforcement, admission, body caps, request
// ids, tracing, and latency histograms all live in the shared router
// (router.go); handlers only parse, call the controller, and render
// through envelope.go.

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"github.com/afrinet/observatory/internal/probes"
	"github.com/afrinet/observatory/internal/store"
)

// RecoveryGate fronts the controller's handler while recovery runs:
// until Ready is called every request is answered 503 Service
// Unavailable (code "unavailable") with a Retry-After header, which the
// probe client treats as transient and retries through. cmd/obsd binds
// its listener immediately and flips the gate once Recover returns, so
// probes reconnecting after a controller restart see a brief 503 window
// rather than connection refusals.
type RecoveryGate struct {
	mu sync.RWMutex
	h  http.Handler
}

// NewRecoveryGate returns a gate in the not-ready (503) state.
func NewRecoveryGate() *RecoveryGate { return &RecoveryGate{} }

// Ready installs the recovered controller's handler and opens the gate.
func (g *RecoveryGate) Ready(h http.Handler) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.h = h
}

// NotReady closes the gate again (a restart in progress).
func (g *RecoveryGate) NotReady() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.h = nil
}

func (g *RecoveryGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.RLock()
	h := g.h
	g.mu.RUnlock()
	if h == nil {
		ensureRequestID(w, r)
		w.Header().Set("Retry-After", "1")
		writeAPIError(w, http.StatusServiceUnavailable, ErrCodeUnavailable,
			fmt.Errorf("controller recovering, retry shortly"))
		return
	}
	h.ServeHTTP(w, r)
}

func (c *Controller) handleRegister(w http.ResponseWriter, r *http.Request, _ PathParams) {
	var p ProbeInfo
	if !DecodeBody(w, r, &p) {
		return
	}
	if err := c.registerProbeCtx(r.Context(), p); err != nil {
		writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": p.ID})
}

func (c *Controller) handleProbes(w http.ResponseWriter, r *http.Request, _ PathParams) {
	items := c.Probes()
	if items == nil {
		items = []ProbeInfo{}
	}
	writeJSON(w, http.StatusOK, page{Items: items})
}

func (c *Controller) handleProbeTasks(w http.ResponseWriter, r *http.Request, p PathParams) {
	max := DefaultLeaseMax
	if s := r.URL.Query().Get("max"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest,
				fmt.Errorf("max must be a non-negative integer, got %q", s))
			return
		}
		if n > 0 {
			max = n
		}
	}
	writeJSON(w, http.StatusOK, c.leaseTasksCtx(r.Context(), p["id"], max))
}

func (c *Controller) handleProbeResults(w http.ResponseWriter, r *http.Request, p PathParams) {
	var rs []probes.Result
	if !DecodeBody(w, r, &rs) {
		return
	}
	accepted, err := c.submitResultsCtx(r.Context(), p["id"], rs)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"accepted": accepted, "received": len(rs)})
}

func (c *Controller) handleProbeHeartbeat(w http.ResponseWriter, r *http.Request, p PathParams) {
	if err := c.heartbeatCtx(r.Context(), p["id"]); err != nil {
		writeAPIError(w, http.StatusNotFound, ErrCodeNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// submitRequest is the experiment submission body. RequestID, when set,
// makes the submission idempotent: the controller remembers which
// experiment each request id created and returns it again on redelivery,
// so clients retry submissions as freely as uploads.
type submitRequest struct {
	RequestID   string              `json:"request_id,omitempty"`
	Owner       string              `json:"owner"`
	Description string              `json:"description"`
	Assignments []probes.Assignment `json:"assignments"`
	// ID optionally pins the experiment id (federation coordinators
	// submitting per-shard slices of one federated experiment); empty
	// mints the usual exp-%04d id.
	ID string `json:"id,omitempty"`
}

func (c *Controller) handleSubmit(w http.ResponseWriter, r *http.Request, _ PathParams) {
	var req submitRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if len(req.ID) > 128 {
		writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest,
			fmt.Errorf("experiment id longer than 128 bytes"))
		return
	}
	exp, err := c.submitExperimentIdemCtx(r.Context(), req.RequestID, req.ID, req.Owner, req.Description, req.Assignments)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, exp)
}

func (c *Controller) handleExperimentGet(w http.ResponseWriter, r *http.Request, p PathParams) {
	exp, ok := c.Experiment(p["id"])
	if !ok {
		writeAPIError(w, http.StatusNotFound, ErrCodeNotFound,
			fmt.Errorf("unknown experiment %s", p["id"]))
		return
	}
	writeJSON(w, http.StatusOK, exp)
}

func (c *Controller) handleExperimentApprove(w http.ResponseWriter, r *http.Request, p PathParams) {
	if err := c.approveCtx(r.Context(), p["id"]); err != nil {
		writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": string(StatusApproved)})
}

func (c *Controller) handleExperimentResults(w http.ResponseWriter, r *http.Request, p PathParams) {
	q := r.URL.Query()
	limit, ok := ParseLimit(w, q.Get("limit"))
	if !ok {
		return
	}
	rs, next, err := c.ResultsPage(p["id"], limit, q.Get("cursor"))
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	if rs == nil {
		rs = []probes.Result{}
	}
	writeJSON(w, http.StatusOK, page{Items: rs, NextCursor: next})
}

// handleQuery serves GET /api/v1/query: filtered scans and time-window
// aggregations over the results store.
func (c *Controller) handleQuery(w http.ResponseWriter, r *http.Request, _ PathParams) {
	q := r.URL.Query()
	f, ok := ParseFilter(w, q)
	if !ok {
		return
	}
	switch op := q.Get("op"); op {
	case "", "aggregate":
		rep, err := c.AggregateResults(store.AggQuery{Filter: f, GroupBy: q.Get("group_by")})
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	case "scan":
		limit, ok := ParseLimit(w, q.Get("limit"))
		if !ok {
			return
		}
		recs, next, err := c.ScanResults(f, limit, q.Get("cursor"))
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
			return
		}
		if recs == nil {
			recs = []store.Record{}
		}
		writeJSON(w, http.StatusOK, page{Items: recs, NextCursor: next})
	default:
		writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest,
			fmt.Errorf("unknown op %q (want aggregate or scan)", op))
	}
}

func (c *Controller) handleHealth(w http.ResponseWriter, r *http.Request, _ PathParams) {
	writeJSON(w, http.StatusOK, c.Health())
}

func (c *Controller) handleStats(w http.ResponseWriter, r *http.Request, _ PathParams) {
	writeJSON(w, http.StatusOK, c.Stats())
}

// handleDebugTraces serves the slowest recent request traces from the
// controller's trace ring.
func (c *Controller) handleDebugTraces(w http.ResponseWriter, r *http.Request, _ PathParams) {
	ServeTraces(c.ring, w, r)
}

func (c *Controller) handleMetrics(w http.ResponseWriter, r *http.Request, _ PathParams) {
	ServeMetrics(c.reg, w)
}
