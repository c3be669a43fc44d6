package main

import (
	"sync"
	"testing"
	"time"
)

// TestPacerHoldsTheMix runs a fast writer and a slow reader through a
// pacer: the reader never starts query i before i*every syncs, the
// writer never gets more than two rounds ahead, and close releases a
// client left waiting.
func TestPacerHoldsTheMix(t *testing.T) {
	const every, queries = 4, 50
	p := newPacer(every)
	var mu sync.Mutex
	var syncs, done int64
	var bad []string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p.beforeSync() {
			mu.Lock()
			if syncs >= (done+1)*every {
				bad = append(bad, "writer ran more than one round ahead")
			}
			syncs++
			mu.Unlock()
			p.afterSync()
		}
	}()
	for i := int64(0); i < queries; i++ {
		if !p.beforeQuery(i) {
			t.Fatal("pacer closed early")
		}
		mu.Lock()
		if syncs < i*every {
			bad = append(bad, "query started before its syncs")
		}
		mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		mu.Lock()
		done++
		mu.Unlock()
		p.afterQuery()
	}
	// The writer is now parked a round ahead; close must free it.
	p.close()
	wg.Wait()
	if len(bad) > 0 {
		t.Fatal(bad[0])
	}
	if syncs < (queries-1)*every {
		t.Fatalf("writer finished %d syncs, want at least %d", syncs, (queries-1)*every)
	}
	if p.beforeQuery(queries+10) || p.beforeSync() {
		t.Fatal("a closed pacer let a client through")
	}
	var nilPacer *pacer
	if !nilPacer.beforeSync() || !nilPacer.beforeQuery(5) {
		t.Fatal("a nil pacer made a client wait")
	}
}
