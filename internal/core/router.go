package core

// router.go is the v1 route layer both front ends share: the controller
// (routes.go binds apiRoutes to it) and the federation coordinator
// (internal/federation/http.go). It is the one place that matches
// paths, enforces methods (405 + Allow), runs admission (429 +
// Retry-After), caps request bodies (413), assigns request ids, and
// records per-route latency histograms, span traces, and slow-request
// log lines; handlers only parse, call their backend, and render
// through envelope.go. scripts/check.sh fails if a second copy of the
// dispatch grows anywhere else.

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/store"
	"github.com/afrinet/observatory/internal/topology"
)

// PathParams are the captured {name} segments of a matched route.
type PathParams map[string]string

// Route is one endpoint of a front end's route table.
type Route struct {
	Name    string // histogram/trace/admission tag, e.g. "probe_tasks"
	Method  string
	Pattern string // "/api/v1/probes/{id}/tasks"
	// Priority classes the route for admission control: high-priority
	// field traffic is shed last, low-priority analyst traffic first
	// (see admission.go).
	Priority RoutePriority
	Handle   func(http.ResponseWriter, *http.Request, PathParams)
}

// DefaultSlowRequest is the threshold above which a request emits one
// structured slow-request log line.
const DefaultSlowRequest = 500 * time.Millisecond

// DefaultTraceRing is how many finished request traces a front end
// retains for /api/v1/debug/traces.
const DefaultTraceRing = 256

// MaxBodyBytes bounds every JSON request body; anything larger is
// rejected with 413 before it can balloon front-end memory. The router
// applies the cap; DecodeBody translates the overflow.
const MaxBodyBytes = 8 << 20 // 8 MiB

// compiledRoute is a table entry plus its pre-split pattern and the
// pre-created latency histogram series.
type compiledRoute struct {
	Route
	segs []string
	hist *obs.Histogram
}

// router matches requests against a route table and wraps every
// handler with admission and the observability middleware.
type router struct {
	routes []compiledRoute
	adm    *Admission
	ring   *obs.TraceRing
	slow   time.Duration
}

// NewRouter serves a route table. Every response carries X-Request-ID;
// non-2xx responses share the {"error": {code, message, request_id}}
// envelope; POST bodies are bounded at MaxBodyBytes. adm gates every
// matched request; reg gets one MetricHTTP series per route; ring (nil
// for none) retains each finished span tree; requests taking slow or
// longer (0 disables) log one line.
func NewRouter(routes []Route, adm *Admission, reg *obs.Registry, ring *obs.TraceRing, slow time.Duration) http.Handler {
	rt := &router{adm: adm, ring: ring, slow: slow}
	for _, r := range routes {
		rt.routes = append(rt.routes, compiledRoute{
			Route: r,
			segs:  strings.Split(strings.TrimPrefix(r.Pattern, "/"), "/"),
			hist:  reg.Hist(MetricHTTP, "route", r.Name),
		})
	}
	return rt
}

// match finds the route for (method, path). When only the method
// mismatches it returns the set of allowed methods for the 405.
func (rt *router) match(method, path string) (*compiledRoute, PathParams, []string) {
	// Only the leading slash is trimmed: a trailing slash is a real
	// (empty) segment, so "/api/v1/experiments/" falls through to 404
	// rather than matching the collection route.
	segs := strings.Split(strings.TrimPrefix(path, "/"), "/")
	var allowed []string
	for i := range rt.routes {
		cr := &rt.routes[i]
		params, ok := matchSegs(cr.segs, segs)
		if !ok {
			continue
		}
		if cr.Method == method {
			return cr, params, nil
		}
		allowed = append(allowed, cr.Method)
	}
	sort.Strings(allowed)
	return nil, nil, allowed
}

// matchSegs matches concrete path segments against a pattern; {name}
// captures any non-empty segment.
func matchSegs(pattern, segs []string) (PathParams, bool) {
	if len(pattern) != len(segs) {
		return nil, false
	}
	var params PathParams
	for i, p := range pattern {
		if strings.HasPrefix(p, "{") && strings.HasSuffix(p, "}") {
			if segs[i] == "" {
				return nil, false
			}
			if params == nil {
				params = make(PathParams, 2)
			}
			params[p[1:len(p)-1]] = segs[i]
			continue
		}
		if p != segs[i] {
			return nil, false
		}
	}
	return params, true
}

func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := ensureRequestID(w, r)
	cr, params, allowed := rt.match(r.Method, r.URL.Path)
	if cr == nil {
		if len(allowed) > 0 {
			w.Header().Set("Allow", strings.Join(allowed, ", "))
			writeAPIError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed,
				fmt.Errorf("method not allowed (allowed: %s)", strings.Join(allowed, ", ")))
			return
		}
		writeAPIError(w, http.StatusNotFound, ErrCodeNotFound, errors.New("not found"))
		return
	}
	// Admission runs after the route is known (shedding is per-route and
	// per-priority) but before any trace or body work is spent on a
	// request the front end will refuse.
	release, ok := rt.adm.admit(cr.Name, cr.Priority)
	if !ok {
		w.Header().Set("Retry-After", strconv.Itoa(rt.adm.retryAfterSeconds()))
		writeAPIError(w, http.StatusTooManyRequests, ErrCodeRateLimited, errRateLimited(cr.Name))
		return
	}
	defer release()
	if r.Method == http.MethodPost {
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	}
	tr := obs.NewTrace(reqID, cr.Name, r.Method)
	r = r.WithContext(obs.WithSpan(r.Context(), tr.Root()))
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}

	cr.Handle(rec, r, params)

	view, dur := tr.Finish(rec.status)
	cr.hist.Observe(dur)
	if rt.ring != nil {
		rt.ring.Add(view)
	}
	if rt.slow > 0 && dur >= rt.slow {
		log.Printf("obs: slow request route=%s method=%s status=%d dur=%s request_id=%s",
			cr.Name, r.Method, rec.status, dur.Round(time.Microsecond), reqID)
	}
}

// DecodeBody decodes the (router-bounded) JSON request body into v,
// writing the error envelope (413 for oversized bodies, 400 otherwise)
// itself. Returns false when the handler should stop.
func DecodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeAPIError(w, http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return false
	}
	return true
}

// ParseLimit parses a ?limit= value ("" means no limit). Writes the 400
// itself; the second return is false when the handler should stop.
func ParseLimit(w http.ResponseWriter, s string) (int, bool) {
	if s == "" {
		return 0, true
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest,
			fmt.Errorf("limit must be a non-negative integer, got %q", s))
		return 0, false
	}
	return n, true
}

// ParseFilter builds a store.Filter from query parameters (experiment,
// country, asn, kind, verdict, resolver_chain, ecs, from_tick,
// to_tick). Writes the 400 itself.
func ParseFilter(w http.ResponseWriter, q map[string][]string) (store.Filter, bool) {
	get := func(k string) string {
		if vs := q[k]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	f := store.Filter{
		Experiment:    get("experiment"),
		Country:       get("country"),
		Kind:          get("kind"),
		Verdict:       get("verdict"),
		ResolverChain: get("resolver_chain"),
	}
	if s := get("ecs"); s != "" {
		if s != "true" && s != "false" {
			writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest,
				fmt.Errorf("ecs must be true or false, got %q", s))
			return f, false
		}
		f.ECS = s
	}
	if s := get("asn"); s != "" {
		n, err := strconv.ParseUint(s, 10, 32)
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest,
				fmt.Errorf("asn must be an integer, got %q", s))
			return f, false
		}
		f.ASN = topology.ASN(n)
	}
	for _, tk := range []struct {
		name string
		dst  *int64
	}{{"from_tick", &f.FromTick}, {"to_tick", &f.ToTick}} {
		if s := get(tk.name); s != "" {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest,
					fmt.Errorf("%s must be an integer, got %q", tk.name, s))
				return f, false
			}
			*tk.dst = n
		}
	}
	return f, true
}

// ServeTraces answers the debug_traces route of either front end with
// the slowest recent request traces from ring.
func ServeTraces(ring *obs.TraceRing, w http.ResponseWriter, r *http.Request) {
	n := 10
	if s := r.URL.Query().Get("slowest"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			writeAPIError(w, http.StatusBadRequest, ErrCodeBadRequest,
				fmt.Errorf("slowest must be a non-negative integer, got %q", s))
			return
		}
		n = v
	}
	writeJSON(w, http.StatusOK, page{Items: ring.Slowest(n)})
}

// ServeMetrics answers the metrics route of either front end with the
// Prometheus text exposition of reg. It writes text (not JSON) with an
// implicit 200; it is the one non-envelope response in the API.
func ServeMetrics(reg *obs.Registry, w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WritePrometheus(w)
}
