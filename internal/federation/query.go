package federation

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/afrinet/observatory/internal/store"
)

// QueryMeta annotates a federated query response. Degraded reports that
// at least one shard could not answer within its deadline (after a
// hedged retry): the results are genuinely partial, the listed shards'
// records are absent, and the caller decides whether partial is good
// enough — the alternative, failing the whole query because one region
// is dark, is exactly what the paper's observatory cannot afford.
type QueryMeta struct {
	Degraded      bool     `json:"degraded,omitempty"`
	ShardsMissing []string `json:"shards_missing,omitempty"`
}

// Composite cursors encode one per-shard sequence position per segment:
// "shardA=17;shardB=40". Shard IDs may be URL-ish (the -coordinator
// mode uses base URLs as IDs), so each segment splits on its LAST '='.

func parseFedCursor(cursor string) (map[string]string, error) {
	out := make(map[string]string)
	if cursor == "" {
		return out, nil
	}
	for _, seg := range strings.Split(cursor, ";") {
		i := strings.LastIndex(seg, "=")
		if i <= 0 || i == len(seg)-1 {
			return nil, fmt.Errorf("federation: bad cursor segment %q", seg)
		}
		out[seg[:i]] = seg[i+1:]
	}
	return out, nil
}

func encodeFedCursor(pos map[string]string) string {
	ids := make([]string, 0, len(pos))
	for id, p := range pos {
		if p != "" {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return ""
	}
	sort.Strings(ids)
	segs := make([]string, 0, len(ids))
	for _, id := range ids {
		segs = append(segs, id+"="+pos[id])
	}
	return strings.Join(segs, ";")
}

// taggedRecord pairs a record with the shard it came from so the merge
// order — (Seq, shard id) — is total and deterministic.
type taggedRecord struct {
	rec   store.Record
	shard string
}

// shardScan is one shard's contribution to a fan-out.
type shardScan struct {
	id      string
	recs    []store.Record
	next    string
	err     error
	skipped bool // no position to fetch (exhausted on a previous page)
}

// scatterScans fans ScanPage out to every shard in parallel under the
// per-shard deadline with hedged retries, one goroutine per shard.
// Results come back positionally — nothing shared is written.
func (c *Coordinator) scatterScans(f store.Filter, limit int, pos map[string]string, fetch map[string]bool) []shardScan {
	targets, ids := c.allTargets()
	scans := make([]shardScan, len(targets))
	var wg sync.WaitGroup
	for i := range targets {
		scans[i].id = ids[i]
		if fetch != nil && !fetch[ids[i]] {
			scans[i].skipped = true
			continue
		}
		wg.Add(1)
		go func(i int, t shardTarget) {
			defer wg.Done()
			type page struct {
				recs []store.Record
				next string
			}
			p, err := scatterCall(c, t.st, t.backend, true, func(s Shard) (page, error) {
				recs, next, err := s.ScanPage(f, limit, pos[scans[i].id])
				return page{recs: recs, next: next}, err
			})
			scans[i].recs, scans[i].next, scans[i].err = p.recs, p.next, err
		}(i, targets[i])
	}
	wg.Wait()
	return scans
}

// ScanPage is the federated record scan: every shard's matching records
// merged in (sequence, shard) order, limit at a time, behind a
// composite cursor that tracks one position per shard. Duplicate
// (experiment, task) keys are collapsed first-wins within the page
// fan-out; by routing every probe's results to one owning shard — an
// ownership that failover preserves, since the replacement serves the
// same shard ID — cross-shard duplicates do not arise in normal
// operation. Shards that cannot answer degrade the response instead of
// failing it; their cursor positions are carried forward untouched so a
// later page retries them. Every shard failing is an error.
func (c *Coordinator) ScanPage(f store.Filter, limit int, cursor string) ([]store.Record, string, QueryMeta, error) {
	var meta QueryMeta
	pos, err := parseFedCursor(cursor)
	if err != nil {
		return nil, "", meta, err
	}
	c.mu.Lock()
	nShards := len(c.order)
	c.mu.Unlock()
	if nShards == 0 {
		return nil, "", meta, ErrNoShards
	}
	c.ctr.Inc("fed_queries")

	// A shard with an empty position on a non-empty cursor was
	// exhausted by an earlier page: don't re-fetch it from the start.
	var fetch map[string]bool
	if cursor != "" {
		fetch = make(map[string]bool, len(pos))
		for id := range pos {
			fetch[id] = true
		}
	}
	scans := c.scatterScans(f, limit, pos, fetch)

	merged := make([]taggedRecord, 0, 64)
	nextPos := make(map[string]string, len(scans))
	for _, sc := range scans {
		if sc.skipped {
			continue
		}
		if sc.err != nil {
			meta.Degraded = true
			meta.ShardsMissing = append(meta.ShardsMissing, sc.id)
			// Carry the shard's position forward so a later page can
			// pick it back up once the shard answers again.
			if p := pos[sc.id]; p != "" {
				nextPos[sc.id] = p
			} else {
				nextPos[sc.id] = "0" // from the beginning, explicitly
			}
			continue
		}
		for _, r := range sc.recs {
			merged = append(merged, taggedRecord{rec: r, shard: sc.id})
		}
	}
	if meta.Degraded {
		sort.Strings(meta.ShardsMissing)
		c.ctr.Inc("fed_degraded_queries")
		if len(meta.ShardsMissing) == nShards {
			return nil, "", meta, fmt.Errorf("federation: all %d shards unavailable: %w", nShards, ErrShardDown)
		}
	}

	sort.Slice(merged, func(i, j int) bool {
		if merged[i].rec.Seq != merged[j].rec.Seq {
			return merged[i].rec.Seq < merged[j].rec.Seq
		}
		return merged[i].shard < merged[j].shard
	})

	seen := make(map[store.DedupKey]bool, len(merged))
	out := make([]store.Record, 0, len(merged))
	consumed := make(map[string]uint64, len(scans)) // highest seq taken per shard
	for _, tr := range merged {
		if limit > 0 && len(out) >= limit {
			break
		}
		consumed[tr.shard] = tr.rec.Seq
		k := tr.rec.DedupKey()
		if seen[k] {
			c.ctr.Inc("fed_records_deduped")
			continue
		}
		seen[k] = true
		out = append(out, tr.rec)
	}

	// Next composite cursor: a shard we consumed fully follows its own
	// next-page cursor (gone when exhausted); a partially-consumed shard
	// resumes after its last consumed seq; a fetched-but-untouched shard
	// keeps its incoming position. Skipped (already-exhausted) shards
	// stay absent.
	for _, sc := range scans {
		if sc.skipped || sc.err != nil {
			continue
		}
		seq, took := consumed[sc.id]
		switch {
		case !took:
			if len(sc.recs) > 0 || sc.next != "" {
				if p := pos[sc.id]; p != "" {
					nextPos[sc.id] = p
				} else {
					nextPos[sc.id] = "0"
				}
			}
		case len(sc.recs) > 0 && seq >= sc.recs[len(sc.recs)-1].Seq:
			if sc.next != "" {
				nextPos[sc.id] = sc.next
			}
		default:
			nextPos[sc.id] = strconv.FormatUint(seq, 10)
		}
	}
	return out, encodeFedCursor(nextPos), meta, nil
}

// Aggregate is the federated aggregation: full matching scans from
// every shard, merged and deduplicated centrally, then folded by
// store.AggregateRecords — percentiles do not compose across shards,
// so the fold runs over the merged record set, which is byte-for-byte
// what a single store holding every record would compute. Unresponsive
// shards degrade the report (their records are absent); all shards
// failing is an error.
func (c *Coordinator) Aggregate(q store.AggQuery) (store.AggReport, QueryMeta, error) {
	var meta QueryMeta
	if err := store.ValidGroupBy(q.GroupBy); err != nil {
		return store.AggReport{}, meta, err
	}
	c.mu.Lock()
	nShards := len(c.order)
	c.mu.Unlock()
	if nShards == 0 {
		return store.AggReport{}, meta, ErrNoShards
	}
	c.ctr.Inc("fed_queries")

	scans := c.scatterScans(q.Filter, 0, nil, nil)
	merged := make([]taggedRecord, 0, 64)
	for _, sc := range scans {
		if sc.err != nil {
			meta.Degraded = true
			meta.ShardsMissing = append(meta.ShardsMissing, sc.id)
			continue
		}
		for _, r := range sc.recs {
			merged = append(merged, taggedRecord{rec: r, shard: sc.id})
		}
	}
	if meta.Degraded {
		sort.Strings(meta.ShardsMissing)
		c.ctr.Inc("fed_degraded_queries")
		if len(meta.ShardsMissing) == nShards {
			return store.AggReport{}, meta, fmt.Errorf("federation: all %d shards unavailable: %w", nShards, ErrShardDown)
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].rec.Seq != merged[j].rec.Seq {
			return merged[i].rec.Seq < merged[j].rec.Seq
		}
		return merged[i].shard < merged[j].shard
	})
	seen := make(map[store.DedupKey]bool, len(merged))
	recs := make([]store.Record, 0, len(merged))
	for _, tr := range merged {
		k := tr.rec.DedupKey()
		if seen[k] {
			c.ctr.Inc("fed_records_deduped")
			continue
		}
		seen[k] = true
		recs = append(recs, tr.rec)
	}
	rep, err := store.AggregateRecords(recs, q.GroupBy)
	if err != nil {
		return store.AggReport{}, meta, err
	}
	return rep, meta, nil
}
