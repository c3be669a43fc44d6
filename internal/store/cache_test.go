package store

import (
	"os"
	"reflect"
	"sync"
	"testing"
)

// checkCache asserts the segment cache's invariants: it holds only live
// disk segments, its record count matches what they hold, and it stays
// within budget.
func checkCache(t *testing.T, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	live := make(map[*segment]bool, len(s.segs))
	for _, sg := range s.segs {
		live[sg] = true
	}
	size := 0
	for e := s.cache.lru.Front(); e != nil; e = e.Next() {
		sg := e.Value.(*segment)
		if !live[sg] {
			t.Fatalf("cache holds segment %d, which the store no longer has", sg.id)
		}
		size += len(sg.recs)
	}
	if size != s.cache.size {
		t.Fatalf("cache accounts %d records, holds %d", s.cache.size, size)
	}
	if size > s.cache.budget {
		t.Fatalf("cache holds %d records, budget %d", size, s.cache.budget)
	}
}

func TestSegmentCacheDecodesOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, "exp-0001", 40, 1)
	appendN(t, s, "exp-0002", 24, 2)
	if got := s.Counters()["segments_decoded"]; got != 0 || s.cache.lru.Len() != 0 {
		t.Fatalf("flushes filled the cache: %d decodes, %d cached segments", got, s.cache.lru.Len())
	}
	segs := int64(s.SegmentCount())
	for i := 0; i < 5; i++ {
		if _, err := s.Aggregate(AggQuery{GroupBy: GroupCountryASN}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.ScanPage(Filter{}, 10, ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Counters()["segments_decoded"]; got != segs {
		t.Fatalf("segments_decoded = %d after 10 scans, want %d (one per segment)", got, segs)
	}
	// A pruned scan decodes nothing new; a fresh segment decodes once.
	if _, _, err := s.ScanPage(Filter{Experiment: "exp-0002"}, 0, ""); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, "exp-0003", 8, 3)
	for i := 0; i < 3; i++ {
		if _, err := s.Aggregate(AggQuery{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Counters()["segments_decoded"]; got != segs+1 {
		t.Fatalf("segments_decoded = %d, want %d", got, segs+1)
	}
	checkCache(t, s)
}

// TestSegmentCacheConcurrentFirstLoad: scans racing to a cold store
// decode every segment exactly once between them.
func TestSegmentCacheConcurrentFirstLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, "exp-0001", 256, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{FlushEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := re.Aggregate(AggQuery{GroupBy: GroupCountry})
			if err != nil {
				t.Error(err)
			} else if rep.Matched != 256 {
				t.Errorf("matched %d, want 256", rep.Matched)
			}
		}()
	}
	wg.Wait()
	if got, want := re.Counters()["segments_decoded"], int64(re.SegmentCount()); got != want {
		t.Fatalf("segments_decoded = %d, want %d (one per segment)", got, want)
	}
}

// TestSegmentCacheEvictionKeepsResults runs a store whose working set is
// several times its cache budget: every scan must match a memory store
// holding the same records, and the cache must stay within budget.
func TestSegmentCacheEvictionKeepsResults(t *testing.T) {
	opts := Options{FlushEvery: 8, TargetFrames: 8} // budget 64 records
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := NewMemory(opts)
	for _, r := range genRecords(7, 400) {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
		if err := ref.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	queries := []AggQuery{
		{GroupBy: GroupCountryASN},
		{Filter: Filter{Experiment: "exp-0002"}, GroupBy: GroupASN},
		{Filter: Filter{FromTick: 10, ToTick: 30}, GroupBy: GroupCountry},
	}
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			got, err := s.Aggregate(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Aggregate(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %+v: cached store diverged from memory store", round, q)
			}
			gotRecs, _, err := s.ScanPage(q.Filter, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			wantRecs, _, err := ref.ScanPage(q.Filter, 0, "")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRecs, wantRecs) {
				t.Fatalf("round %d %+v: cached scan diverged from memory store", round, q.Filter)
			}
			checkCache(t, s)
		}
	}
	if s.Counters()["segments_evicted"] == 0 {
		t.Fatal("a working set past the budget evicted nothing")
	}
}

// TestSegmentCacheNoStaleAfterCompaction: segments that compaction or
// retention delete leave the cache, and scans never serve their records.
func TestSegmentCacheNoStaleAfterCompaction(t *testing.T) {
	s, err := Open(t.TempDir(), Options{FlushEvery: 4, TargetFrames: 64, Retention: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, "exp-old", 8, 1)  // two segments that expire wholesale
	appendN(t, s, "exp-mix", 4, 50) // a segment merged with exp-new, losing its records
	appendN(t, s, "exp-new", 8, 99)
	all, _, err := s.ScanPage(Filter{}, 0, "") // fills the cache
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 20 {
		t.Fatalf("scan = %d records, want 20", len(all))
	}
	if err := s.Compact(100); err != nil { // cutoff 90
		t.Fatal(err)
	}
	checkCache(t, s)
	for _, exp := range []string{"exp-old", "exp-mix"} {
		recs, _, err := s.ScanPage(Filter{Experiment: exp}, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Fatalf("%d expired %s records survived retention", len(recs), exp)
		}
	}
	rep, err := s.Aggregate(AggQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 8 {
		t.Fatalf("aggregate matched %d after retention, want the 8 recent records", rep.Matched)
	}
	checkCache(t, s)
}

// TestTornSegmentCountedEveryScan: a segment truncated on disk is
// decoded once, and every scan of it still counts it torn.
func TestTornSegmentCountedEveryScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, "exp-0001", 16, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := s.segs[0].path
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{FlushEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		recs, _, err := re.ScanPage(Filter{}, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 15 {
			t.Fatalf("torn segment served %d records, want the 15-record prefix", len(recs))
		}
		if got := re.Counters()["segments_truncated_read"]; got != int64(i) {
			t.Fatalf("after scan %d segments_truncated_read = %d, want %d", i, got, i)
		}
	}
	if got := re.Counters()["segments_decoded"]; got != 1 {
		t.Fatalf("segments_decoded = %d, want 1", got)
	}
}

// TestSegmentCacheConcurrentCompaction drives aggregates, appends and
// compaction at once (run it under -race): no scan may see a record
// twice or miss one that was sealed before it started.
func TestSegmentCacheConcurrentCompaction(t *testing.T) {
	s, err := Open(t.TempDir(), Options{FlushEvery: 8, TargetFrames: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const total = 240
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < total; i++ {
			if err := s.Append(mkRec("exp-0001", i, int64(i))); err != nil {
				t.Error(err)
				return
			}
			if i%40 == 39 {
				if err := s.Compact(int64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(0)
			for {
				select {
				case <-done:
					return
				default:
				}
				rep, err := s.Aggregate(AggQuery{GroupBy: GroupCountryASN})
				if err != nil {
					t.Error(err)
					return
				}
				if rep.Matched < last {
					t.Errorf("aggregate went back from %d to %d records", last, rep.Matched)
					return
				}
				last = rep.Matched
			}
		}()
	}
	wg.Wait()
	if err := s.Compact(total); err != nil {
		t.Fatal(err)
	}
	recs, _, err := s.ScanPage(Filter{}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != total {
		t.Fatalf("scan = %d records, want %d", len(recs), total)
	}
	if got := s.Counters()["records_deduped_read"]; got != 0 {
		t.Fatalf("records_deduped_read = %d, want 0", got)
	}
	checkCache(t, s)
}

// TestParseSegmentPresize: an honest segment decodes without append
// slack, and an index claiming absurdly many frames allocates no more
// than the bytes could hold.
func TestParseSegmentPresize(t *testing.T) {
	var recs []Record
	for i := 0; i < 5; i++ {
		r := mkRec("exp-0001", i, 1)
		r.Seq = uint64(i + 1)
		recs = append(recs, r)
	}
	meta := buildMeta(recs)
	raw, err := EncodeSegment(meta, recs)
	if err != nil {
		t.Fatal(err)
	}
	_, got, torn := ParseSegment(raw)
	if torn || len(got) != 5 || cap(got) != 5 {
		t.Fatalf("honest segment: len %d cap %d torn %v, want 5/5/false", len(got), cap(got), torn)
	}
	meta.Frames = 1 << 40
	raw, err = EncodeSegment(meta, recs)
	if err != nil {
		t.Fatal(err)
	}
	_, got, _ = ParseSegment(raw)
	if len(got) != 5 || cap(got) > len(raw)/(frameHeader+1) {
		t.Fatalf("lying index: len %d cap %d over %d bytes", len(got), cap(got), len(raw))
	}
}
