package main

// audit.go holds the output gates of the fleet workloads. Each returns
// the list of violations; any violation makes the run incorrect and the
// benchmark exit non-zero.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"

	"github.com/afrinet/observatory/internal/core"
)

// auditExactlyOnce checks the controllers' own books against what the
// clients saw acknowledged: every acknowledged result recorded exactly
// once, nothing deduplicated, rejected or requeued, and no lease left
// open once the fleet has drained its outboxes.
func auditExactlyOnce(ctrls []*core.Controller, acked int64) []string {
	var recorded, deduped, rejected, requeued int64
	leases := 0
	for _, c := range ctrls {
		st := c.Stats()
		recorded += st.Counters["results_recorded"]
		deduped += st.Counters["results_deduped"]
		rejected += st.Counters["results_rejected"]
		requeued += st.Counters["tasks_requeued"]
		leases += c.OutstandingLeases()
	}
	var errs []string
	if recorded != acked {
		errs = append(errs, fmt.Sprintf("exactly-once: clients saw %d results acknowledged, controllers recorded %d", acked, recorded))
	}
	if deduped != 0 {
		errs = append(errs, fmt.Sprintf("exactly-once: %d results deduplicated", deduped))
	}
	if rejected != 0 {
		errs = append(errs, fmt.Sprintf("exactly-once: %d results rejected", rejected))
	}
	if requeued != 0 {
		errs = append(errs, fmt.Sprintf("exactly-once: %d tasks requeued", requeued))
	}
	if leases != 0 {
		errs = append(errs, fmt.Sprintf("exactly-once: %d leases open after drain", leases))
	}
	return errs
}

// aggReply is the part of an op=aggregate answer the gates read; the
// federation fields stay zero on a single controller.
type aggReply struct {
	Matched       int64    `json:"matched"`
	Degraded      bool     `json:"degraded"`
	ShardsMissing []string `json:"shards_missing"`
}

// queryAggregate asks the handler for one experiment's aggregate.
func queryAggregate(h http.Handler, expID string) (aggReply, error) {
	path := "/api/v1/query?op=aggregate&group_by=country_asn&experiment=" + url.QueryEscape(expID)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	var rep aggReply
	if rec.Code != http.StatusOK {
		return rep, fmt.Errorf("aggregate %s: status %d", expID, rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("aggregate %s: %w", expID, err)
	}
	return rep, nil
}

// auditAggregates checks every experiment's op=aggregate answer: a
// preloaded or completed experiment must match its task count, one still
// in flight must match exactly the results acknowledged for it, and no
// federated answer may be degraded.
func auditAggregates(h http.Handler, preload []preloaded, live map[string]*liveExp, order []string) []string {
	type want struct {
		id   string
		n    int64
		done bool
	}
	var wants []want
	for _, p := range preload {
		wants = append(wants, want{p.id, p.tasks, true})
	}
	for _, id := range order {
		le := live[id]
		wants = append(wants, want{id, le.acked, le.done})
		if le.done && le.acked != le.tasks {
			return []string{fmt.Sprintf("experiment %s: completed with %d of %d results", id, le.acked, le.tasks)}
		}
	}
	var errs []string
	for _, w := range wants {
		rep, err := queryAggregate(h, w.id)
		switch {
		case err != nil:
			errs = append(errs, err.Error())
		case rep.Degraded:
			errs = append(errs, fmt.Sprintf("aggregate %s: degraded (missing %v)", w.id, rep.ShardsMissing))
		case rep.Matched != w.n:
			errs = append(errs, fmt.Sprintf("aggregate %s: matched %d, want %d", w.id, rep.Matched, w.n))
		}
	}
	return errs
}
