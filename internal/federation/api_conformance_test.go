package federation

// api_conformance_test.go holds the coordinator to the conformance
// checks internal/core makes of a controller, walking the coordinator's
// own route table: method rejection, 404 envelopes, request-id echo,
// per-route metrics, and the trace ring's bound. It also pins the table
// to core's, so the two front ends cannot drift apart again.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/afrinet/observatory/internal/core"
)

// fillPattern substitutes every {param} in a route pattern with a
// concrete segment.
func fillPattern(pattern string) string {
	segs := strings.Split(pattern, "/")
	for i, s := range segs {
		if strings.HasPrefix(s, "{") && strings.HasSuffix(s, "}") {
			segs[i] = "conf-" + s[1:len(s)-1]
		}
	}
	return strings.Join(segs, "/")
}

func serve(h http.Handler, method, path, body, reqID string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if reqID != "" {
		req.Header.Set(core.RequestIDHeader, reqID)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// envelopeOf decodes the uniform error envelope, failing on any other
// body or a missing field.
func envelopeOf(t *testing.T, w *httptest.ResponseRecorder) (code, requestID string) {
	t.Helper()
	var env struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("response is not an error envelope: %v (body=%q)", err, w.Body.String())
	}
	if env.Error.Code == "" || env.Error.Message == "" || env.Error.RequestID == "" {
		t.Fatalf("envelope missing fields: %+v", env.Error)
	}
	return env.Error.Code, env.Error.RequestID
}

// TestCoordinatorRoutesMatchCore requires every coordinator route that
// shares a name with the controller's table to share its method,
// pattern, and admission priority too; only the listed routes may be
// coordinator-only.
func TestCoordinatorRoutesMatchCore(t *testing.T) {
	want := make(map[string]core.RouteInfo)
	for _, rt := range core.APIRoutes() {
		want[rt.Name] = rt
	}
	coordOnly := map[string]bool{"shards": true}
	c, _ := newHarness(t, 1, "", testConfig())
	for _, rt := range c.routes() {
		w, ok := want[rt.Name]
		if !ok {
			if !coordOnly[rt.Name] {
				t.Errorf("coordinator route %q is neither in core.APIRoutes() nor coordinator-only", rt.Name)
			}
			continue
		}
		if rt.Method != w.Method || rt.Pattern != w.Pattern || rt.Priority.String() != w.Priority {
			t.Errorf("route %s: coordinator %s %s (%s), core %s %s (%s)",
				rt.Name, rt.Method, rt.Pattern, rt.Priority, w.Method, w.Pattern, w.Priority)
		}
	}
}

func TestCoordinatorConformance(t *testing.T) {
	c, _ := newHarness(t, 2, "", testConfig())
	h := c.Handler()

	// Wrong method: 405 + Allow + envelope echoing the request id.
	for _, rt := range c.routes() {
		wrong := http.MethodPost
		if rt.Method == http.MethodPost {
			wrong = http.MethodGet
		}
		w := serve(h, wrong, fillPattern(rt.Pattern), "", "conf-"+rt.Name)
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", rt.Name, wrong, w.Code)
			continue
		}
		if allow := w.Header().Get("Allow"); !strings.Contains(allow, rt.Method) {
			t.Errorf("%s: Allow %q does not include %s", rt.Name, allow, rt.Method)
		}
		code, id := envelopeOf(t, w)
		if code != core.ErrCodeMethodNotAllowed || id != "conf-"+rt.Name {
			t.Errorf("%s: envelope code %q request_id %q", rt.Name, code, id)
		}
	}

	// Unknown path: 404 envelope; request ids echo on success too.
	w := serve(h, http.MethodGet, "/api/v2/nope", "", "conf-404")
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown path: status %d, want 404", w.Code)
	}
	if code, id := envelopeOf(t, w); code != core.ErrCodeNotFound || id != "conf-404" {
		t.Fatalf("unknown path: envelope code %q request_id %q", code, id)
	}
	if got := serve(h, http.MethodGet, "/api/v1/health", "", "probe-77-call-3").Header().Get(core.RequestIDHeader); got != "probe-77-call-3" {
		t.Fatalf("client id not echoed: %q", got)
	}

	// One latency series per route on /metrics.
	for _, rt := range c.routes() {
		body := ""
		if rt.Method == http.MethodPost {
			body = "{}"
		}
		serve(h, rt.Method, fillPattern(rt.Pattern), body, "") // status irrelevant: latency is observed either way
	}
	text := serve(h, http.MethodGet, "/metrics", "", "").Body.String()
	for _, rt := range c.routes() {
		series := fmt.Sprintf(`obs_http_request_seconds_count{route=%q}`, rt.Name)
		if strings.Count(text, series) != 1 {
			t.Errorf("route %s: want exactly one %s on /metrics", rt.Name, series)
		}
	}
}

// TestCoordinatorTraceRingBounded fills the coordinator's trace ring
// from many goroutines and requires it to stop at its bound, served
// through /api/v1/debug/traces.
func TestCoordinatorTraceRingBounded(t *testing.T) {
	c, _ := newHarness(t, 2, "", testConfig())
	h := c.Handler()
	var wg sync.WaitGroup
	const workers, per = 8, 2 * core.DefaultTraceRing / 8
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				serve(h, http.MethodGet, "/api/v1/health", "", "")
			}
		}()
	}
	wg.Wait()
	w := serve(h, http.MethodGet, fmt.Sprintf("/api/v1/debug/traces?slowest=%d", 4*core.DefaultTraceRing), "", "")
	var pg struct {
		Items []struct {
			Route string `json:"route"`
		} `json:"items"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &pg); err != nil || w.Code != http.StatusOK {
		t.Fatalf("debug traces: status %d err=%v", w.Code, err)
	}
	if len(pg.Items) != core.DefaultTraceRing {
		t.Fatalf("ring holds %d traces, want bound %d", len(pg.Items), core.DefaultTraceRing)
	}
	if pg.Items[0].Route != "health" {
		t.Fatalf("trace route %q, want health", pg.Items[0].Route)
	}
	if w := serve(h, http.MethodGet, "/api/v1/debug/traces?slowest=-2", "", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("slowest=-2: status %d, want 400", w.Code)
	}
}
