package store

import (
	"container/list"
	"fmt"
	"os"
	"sync"
)

// cacheBudgetSegments sizes the decoded-segment cache: it holds as many
// records as this many full-size segments, the larger of TargetFrames
// and FlushEvery (32,768 records at the defaults).
const cacheBudgetSegments = 8

// segCache keeps decoded disk segments in memory so a scan parses a
// sealed segment once rather than on every query. Sealed segments are
// immutable, so a cached decode never goes stale; its entry goes when
// compaction or retention deletes the segment. A store-wide record
// budget bounds the memory, evicting least-recently-used segments. The
// cache fills only on reads — a flush never admits its segment — so a
// write-only store keeps its heap. Memory segments never enter it: they
// hold their records from the seal on.
type segCache struct {
	mu     sync.Mutex
	budget int       // records
	size   int       // records held by cached segments
	lru    list.List // of *segment, most recently used at the front
}

// segLoad is one in-flight decode of a disk segment. Scans that find it
// wait on done and share its result rather than decoding again.
type segLoad struct {
	done chan struct{}
	recs []Record
	torn bool
	err  error
}

// load returns the segment's records and whether the segment was found
// torn. A disk segment is read and decoded on first use and served from
// the cache afterwards, with the torn flag it was decoded with. Disk
// reads are tolerant: a segment damaged after it was sealed yields its
// valid prefix.
func (s *Store) load(sg *segment) ([]Record, bool, error) {
	if sg.path == "" {
		return sg.recs, false, nil
	}
	c := &s.cache
	c.mu.Lock()
	if sg.elem != nil {
		c.lru.MoveToFront(sg.elem)
		recs, torn := sg.recs, sg.torn
		c.mu.Unlock()
		return recs, torn, nil
	}
	if ld := sg.loading; ld != nil {
		c.mu.Unlock()
		<-ld.done
		return ld.recs, ld.torn, ld.err
	}
	ld := &segLoad{done: make(chan struct{})}
	sg.loading = ld
	c.mu.Unlock()

	raw, err := os.ReadFile(sg.path)
	if err != nil {
		ld.err = fmt.Errorf("store: reading %s: %w", sg.path, err)
	} else {
		_, ld.recs, ld.torn = ParseSegment(raw)
		s.ctr.Inc("segments_decoded")
	}

	evicted := 0
	c.mu.Lock()
	sg.loading = nil
	if ld.err == nil {
		evicted = c.admitLocked(sg, ld.recs, ld.torn)
	}
	c.mu.Unlock()
	close(ld.done)
	if evicted > 0 {
		s.ctr.Add("segments_evicted", int64(evicted))
	}
	return ld.recs, ld.torn, ld.err
}

// admitLocked caches a freshly decoded segment as the most recently
// used, then evicts from the cold end until the cache fits its budget,
// returning how many segments it evicted. A segment larger than the
// whole budget is served uncached.
func (c *segCache) admitLocked(sg *segment, recs []Record, torn bool) int {
	if len(recs) > c.budget {
		return 0
	}
	sg.recs, sg.torn = recs, torn
	sg.elem = c.lru.PushFront(sg)
	c.size += len(recs)
	evicted := 0
	for c.size > c.budget {
		c.dropLocked(c.lru.Back().Value.(*segment))
		evicted++
	}
	return evicted
}

// drop forgets a segment's cached records; a no-op when none are cached.
// Compaction and retention call it for every segment they delete.
func (c *segCache) drop(sg *segment) {
	c.mu.Lock()
	c.dropLocked(sg)
	c.mu.Unlock()
}

func (c *segCache) dropLocked(sg *segment) {
	if sg.elem == nil {
		return
	}
	c.lru.Remove(sg.elem)
	c.size -= len(sg.recs)
	sg.recs, sg.torn, sg.elem = nil, false, nil
}
