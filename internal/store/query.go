package store

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"github.com/afrinet/observatory/internal/obs"
	"github.com/afrinet/observatory/internal/par"
	"github.com/afrinet/observatory/internal/topology"
)

// Filter selects records. Zero values mean "any"; tick bounds are
// inclusive and a bound of 0 (or less) is open.
type Filter struct {
	Experiment string
	Country    string
	ASN        topology.ASN
	Kind       string
	// Verdict selects websteps results by blocking verdict
	// (dns_blocked, throttled, ...).
	Verdict string
	// ResolverChain selects dnsload results by chain shape
	// (e.g. "stub>cache>cloud>authority").
	ResolverChain string
	// ECS tri-states on the dnsload client-subnet flag: "" any,
	// "true"/"false" exact.
	ECS      string
	FromTick int64
	ToTick   int64
}

func (f Filter) match(r Record) bool {
	if f.Experiment != "" && r.Experiment != f.Experiment {
		return false
	}
	if f.Country != "" && r.Country != f.Country {
		return false
	}
	if f.ASN != 0 && r.ASN != f.ASN {
		return false
	}
	if f.Kind != "" && string(r.Result.Kind) != f.Kind {
		return false
	}
	if f.Verdict != "" && r.Result.Verdict != f.Verdict {
		return false
	}
	if f.ResolverChain != "" && r.Result.ResolverChain != f.ResolverChain {
		return false
	}
	if f.ECS != "" && strconv.FormatBool(r.Result.ECS) != f.ECS {
		return false
	}
	if f.FromTick > 0 && r.Tick < f.FromTick {
		return false
	}
	if f.ToTick > 0 && r.Tick > f.ToTick {
		return false
	}
	return true
}

// collect gathers every record matching the filter, in sequence order,
// with at most one record per (experiment, task) — the lowest-seq copy
// wins, collapsing the duplicates a crash window can leave. Sealed
// segments are pruned on their sparse index and the survivors scanned in
// parallel; because each segment's matches land in its own slot and
// segment seq ranges are disjoint, the merged output is identical no
// matter how many workers ran (the internal/par contract).
func (s *Store) collect(f Filter) ([]Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var scan []*segment
	for _, sg := range s.segs {
		if sg.meta.mayMatch(f) {
			scan = append(scan, sg)
		}
	}
	type part struct {
		recs []*Record // matches, pointing into the segment's records
		err  error
	}
	parts := par.Map(0, len(scan), func(i int) part {
		recs, torn, err := s.load(scan[i])
		if err != nil {
			return part{err: err}
		}
		if torn {
			s.ctr.Inc("segments_truncated_read")
		}
		var m []*Record
		for j := range recs {
			if f.match(recs[j]) {
				m = append(m, &recs[j])
			}
		}
		return part{recs: m}
	})
	total := 0
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		total += len(p.recs)
	}
	seen := make(map[DedupKey]bool, total)
	var out []Record // nil, not empty, when nothing matches
	if total > 0 {
		out = make([]Record, 0, total)
	}
	emit := func(r *Record) {
		k := r.DedupKey()
		if seen[k] {
			s.ctr.Inc("records_deduped_read")
			return
		}
		seen[k] = true
		out = append(out, *r)
	}
	for _, p := range parts {
		for _, r := range p.recs {
			emit(r)
		}
	}
	for i := range s.mem {
		if f.match(s.mem[i]) {
			emit(&s.mem[i])
		}
	}
	return out, nil
}

// ScanPage returns matching records in stable sequence order, limit at a
// time. cursor is the opaque position returned by the previous page (""
// starts from the beginning); the returned cursor is "" once the scan is
// exhausted. Cursors stay valid across flushes, compactions, and
// restarts because they are sequence numbers, which all three preserve.
// limit <= 0 returns everything. The returned records share their Hops
// and Websteps with the store's segments and must be treated as
// read-only.
func (s *Store) ScanPage(f Filter, limit int, cursor string) ([]Record, string, error) {
	t := obs.StartTimer()
	defer func() { s.hScan.Observe(t.Elapsed()) }()
	after, err := parseCursor(cursor)
	if err != nil {
		return nil, "", err
	}
	recs, err := s.collect(f)
	if err != nil {
		return nil, "", err
	}
	s.ctr.Inc("queries_served")
	start := sort.Search(len(recs), func(i int) bool { return recs[i].Seq > after })
	recs = recs[start:]
	if limit > 0 && len(recs) > limit {
		next := strconv.FormatUint(recs[limit-1].Seq, 10)
		return recs[:limit], next, nil
	}
	return recs, "", nil
}

func parseCursor(cursor string) (uint64, error) {
	if cursor == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(cursor, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("store: bad cursor %q", cursor)
	}
	return n, nil
}

// Aggregation group-by modes.
const (
	GroupNone       = "none"
	GroupCountry    = "country"
	GroupASN        = "asn"
	GroupCountryASN = "country_asn"
	// GroupVerdict buckets by websteps blocking verdict; GroupResolver
	// by the probe's resolver class; GroupCountryResolver by both keys
	// — the censorship-report cuts.
	GroupVerdict         = "verdict"
	GroupResolver        = "resolver"
	GroupCountryResolver = "country_resolver"
	// GroupResolverChain buckets by the dnsload resolver chain shape;
	// GroupECS by whether client-subnet was attached — the cuts the ECS
	// localization study reads back out of the platform.
	GroupResolverChain = "resolver_chain"
	GroupECS           = "ecs"
)

// AggQuery is one aggregation request: a record filter plus how to
// bucket the matches.
type AggQuery struct {
	Filter  Filter
	GroupBy string // "", GroupNone, GroupCountry, GroupASN, GroupCountryASN, GroupVerdict, GroupResolver, GroupCountryResolver
}

// AggGroup is one aggregation bucket: result counts, loss rate, and RTT
// statistics (computed over successful results that reported an RTT).
type AggGroup struct {
	Country string       `json:"country,omitempty"`
	ASN     topology.ASN `json:"asn,omitempty"`
	// Resolver is the bucket's resolver class (resolver /
	// country_resolver modes); Verdict its blocking verdict (verdict
	// mode).
	Resolver string `json:"resolver,omitempty"`
	Verdict  string `json:"verdict,omitempty"`
	// ResolverChain is the bucket's chain shape (resolver_chain mode);
	// ECS its client-subnet flag as "true"/"false" (ecs mode).
	ResolverChain string  `json:"resolver_chain,omitempty"`
	ECS           string  `json:"ecs,omitempty"`
	Count         int64   `json:"count"`
	OK            int64   `json:"ok"`
	LossRate      float64 `json:"loss_rate"`
	// Verdicts counts the websteps blocking verdicts inside the bucket
	// (populated whenever the bucket holds verdict-carrying results;
	// map keys marshal sorted, so the JSON stays deterministic).
	Verdicts map[string]int64 `json:"verdicts,omitempty"`
	RTTCount int64            `json:"rtt_count,omitempty"`
	RTTMean  float64          `json:"rtt_mean_ms,omitempty"`
	RTTP50   float64          `json:"rtt_p50_ms,omitempty"`
	RTTP90   float64          `json:"rtt_p90_ms,omitempty"`
	RTTP99   float64          `json:"rtt_p99_ms,omitempty"`
}

// AggReport is an aggregation response: the buckets (sorted by key for
// determinism) plus how many distinct records matched.
type AggReport struct {
	Matched int64      `json:"matched"`
	Groups  []AggGroup `json:"groups"`
}

// Aggregate computes time-window aggregations — counts, loss rate, and
// RTT mean/percentiles — over the filtered records, bucketed per the
// query's GroupBy. Scans run in parallel across segments; the
// aggregation itself is a serial fold in sequence order, so results are
// independent of worker count. It reads the same shared, read-only
// records as ScanPage; the report it returns holds none of them.
func (s *Store) Aggregate(q AggQuery) (AggReport, error) {
	t := obs.StartTimer()
	defer func() { s.hAggregate.Observe(t.Elapsed()) }()
	if err := ValidGroupBy(q.GroupBy); err != nil {
		return AggReport{}, err
	}
	recs, err := s.collect(q.Filter)
	if err != nil {
		return AggReport{}, err
	}
	s.ctr.Inc("queries_served")
	return AggregateRecords(recs, q.GroupBy)
}

// ValidGroupBy rejects unknown aggregation group-by modes.
func ValidGroupBy(groupBy string) error {
	switch groupBy {
	case "", GroupNone, GroupCountry, GroupASN, GroupCountryASN,
		GroupVerdict, GroupResolver, GroupCountryResolver,
		GroupResolverChain, GroupECS:
		return nil
	default:
		return fmt.Errorf("store: unknown group_by %q", groupBy)
	}
}

// AggregateRecords folds an already-collected, deduplicated record set
// into an AggReport. Split out of Store.Aggregate so a federation
// coordinator can merge matching records from every shard and fold them
// centrally — percentiles do not compose across shards, but the fold
// over the merged set is exactly what a single store would compute.
func AggregateRecords(recs []Record, groupBy string) (AggReport, error) {
	if err := ValidGroupBy(groupBy); err != nil {
		return AggReport{}, err
	}
	type bucket struct {
		g    AggGroup
		name string // the key buckets sort by
		rtts []float64
	}
	buckets := make(map[aggKey]*bucket)
	var order []*bucket
	for i := range recs {
		r := &recs[i]
		k := groupKey(r, groupBy)
		b, ok := buckets[k]
		if !ok {
			g, name := k.open(groupBy)
			b = &bucket{g: g, name: name}
			buckets[k] = b
			order = append(order, b)
		}
		b.g.Count++
		if r.Result.Verdict != "" {
			if b.g.Verdicts == nil {
				b.g.Verdicts = make(map[string]int64)
			}
			b.g.Verdicts[r.Result.Verdict]++
		}
		if r.Result.OK {
			b.g.OK++
			if r.Result.RTTms > 0 {
				b.rtts = append(b.rtts, r.Result.RTTms)
			}
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].name < order[j].name })
	rep := AggReport{Matched: int64(len(recs))}
	for _, b := range order {
		if b.g.Count > 0 {
			b.g.LossRate = 1 - float64(b.g.OK)/float64(b.g.Count)
		}
		if len(b.rtts) > 0 {
			sort.Float64s(b.rtts)
			sum := 0.0
			for _, v := range b.rtts {
				sum += v
			}
			b.g.RTTCount = int64(len(b.rtts))
			b.g.RTTMean = sum / float64(len(b.rtts))
			b.g.RTTP50 = percentile(b.rtts, 50)
			b.g.RTTP90 = percentile(b.rtts, 90)
			b.g.RTTP99 = percentile(b.rtts, 99)
		}
		rep.Groups = append(rep.Groups, b.g)
	}
	return rep, nil
}

// aggKey is an aggregation bucket's identity as a comparable value: the
// fold looks buckets up without formatting a string per record, and
// builds the string a bucket sorts by once, when the bucket opens.
type aggKey struct {
	a, b string
	asn  topology.ASN
}

// groupKey returns the bucket identity of r under groupBy.
func groupKey(r *Record, groupBy string) aggKey {
	switch groupBy {
	case GroupCountry:
		return aggKey{a: r.Country}
	case GroupASN:
		return aggKey{asn: r.ASN}
	case GroupCountryASN:
		return aggKey{a: r.Country, asn: r.ASN}
	case GroupVerdict:
		return aggKey{a: r.Result.Verdict}
	case GroupResolver:
		return aggKey{a: r.Result.ResolverKind}
	case GroupCountryResolver:
		return aggKey{a: r.Country, b: r.Result.ResolverKind}
	case GroupResolverChain:
		return aggKey{a: r.Result.ResolverChain}
	case GroupECS:
		return aggKey{a: strconv.FormatBool(r.Result.ECS)}
	}
	return aggKey{}
}

// open labels a new bucket's AggGroup and returns the string the bucket
// sorts by ("<country>/<asn>" for country_asn, the ASN in decimal for
// asn).
func (k aggKey) open(groupBy string) (AggGroup, string) {
	switch groupBy {
	case GroupCountry:
		return AggGroup{Country: k.a}, k.a
	case GroupASN:
		return AggGroup{ASN: k.asn}, strconv.FormatUint(uint64(k.asn), 10)
	case GroupCountryASN:
		return AggGroup{Country: k.a, ASN: k.asn}, k.a + "/" + strconv.FormatUint(uint64(k.asn), 10)
	case GroupVerdict:
		return AggGroup{Verdict: k.a}, k.a
	case GroupResolver:
		return AggGroup{Resolver: k.a}, k.a
	case GroupCountryResolver:
		return AggGroup{Country: k.a, Resolver: k.b}, k.a + "/" + k.b
	case GroupResolverChain:
		return AggGroup{ResolverChain: k.a}, k.a
	case GroupECS:
		return AggGroup{ECS: k.a}, k.a
	}
	return AggGroup{}, ""
}

// percentile is the nearest-rank percentile of an ascending-sorted
// sample set.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// KeySet returns the set of task IDs the store holds for one experiment.
// Recovery uses it to reconcile the controller's dedup bookkeeping
// against what actually survived a crash.
func (s *Store) KeySet(experiment string) (map[string]bool, error) {
	recs, err := s.collect(Filter{Experiment: experiment})
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(recs))
	for _, r := range recs {
		out[r.TaskID] = true
	}
	return out, nil
}
