package main

// speed.go measures how fast the machine is running while a workload
// runs, so that timings can be stated at a fixed reference speed.
//
// The benchmark's reference machine is a 2-vCPU guest on a shared host.
// Its neighbours' load changes the speed of a fixed piece of code by
// 20-40% over tens of seconds, with no steal time recorded, so CPU time
// moves as much as wall time does. A probe of two fixed kernels is run
// in short pauses of the workload; each timing the benchmark bounds is
// scaled by the probe's median speed in that run, to the power
// speedExponent.
//
// The probe is fixed code in this file: nothing in the program under
// test runs in it, so a change to the program cannot speed it up.

import (
	"math"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The probe's two kernels: an ALU-bound xorshift loop, and the same
// loop adding into random words of a 32 MiB table, which stresses the
// shared cache and memory the way a workload's heap does. Their nominal
// times are what they take on the reference machine when it is quiet,
// so a speed of 1 is that machine's quiet speed.
const (
	probeALUIters  = 1_600_000
	probeMemIters  = 300_000
	probeTableLog2 = 22 // words: 1<<22 * 8 B = 32 MiB
	nominalALU     = 4.0 * float64(time.Millisecond)
	nominalMem     = 4.4 * float64(time.Millisecond)
)

// speedExponent is how strongly the workloads' timings follow the
// probe's speed. They slow down more than the probe does: over three
// ten-run sets per workload on the reference machine, the logarithm of
// a raw figure moved 1.3 to 2 times as far as that of the speed, most
// on the fleet workloads, whose clients contend for a lock. Scaling by
// speed^1.5 left the medians of the sets within 2-7% of each other on
// every workload, against 12-21% with the plain speed and up to 14%
// with its square.
const speedExponent = 1.5

// speedEvery is how often the fleet workloads pause their clients to
// run the probe.
const speedEvery = 500 * time.Millisecond

// speedProbe times the kernels and keeps every speed it measured.
type speedProbe struct {
	table []uint64 // mapped outside the Go heap, so heap_peak_mb does not see it
	raw   []byte
	mu    sync.Mutex
	speed []float64
	alu   []float64 // each kernel's own speed, kept for the record
	mem   []float64
	sink  uint64
}

func newSpeedProbe() (*speedProbe, error) {
	raw, err := syscall.Mmap(-1, 0, 8<<probeTableLog2, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	p := &speedProbe{raw: raw, table: unsafeWords(raw)}
	// Fault every page in now, not during the first measurement.
	for i := 0; i < len(p.table); i += 512 {
		p.table[i] = uint64(i)
	}
	return p, nil
}

// close unmaps the table.
func (p *speedProbe) close() error {
	if p == nil || p.raw == nil {
		return nil
	}
	p.table = nil
	raw := p.raw
	p.raw = nil
	return syscall.Munmap(raw)
}

// sample runs both kernels once and records the machine's speed: the
// geometric mean of nominal over measured time of the two. It returns
// how long the probe took.
func (p *speedProbe) sample() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < probeALUIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	t1 := time.Now()
	mask := uint64(len(p.table) - 1)
	for i := 0; i < probeMemIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.table[x&mask] += x
	}
	t2 := time.Now()
	alu, mem := float64(t1.Sub(t0)), float64(t2.Sub(t1))
	s := math.Sqrt((nominalALU / alu) * (nominalMem / mem))
	p.mu.Lock()
	p.speed = append(p.speed, s)
	p.alu = append(p.alu, nominalALU/alu)
	p.mem = append(p.mem, nominalMem/mem)
	p.sink += x
	p.mu.Unlock()
	return t2.Sub(t0)
}

// median is the run's machine speed: the median of its samples, NaN
// for none.
func (p *speedProbe) median() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Median(p.speed)
}

// series returns copies of the speeds measured, in order: the
// combined speed and each kernel's own.
func (p *speedProbe) series() (speed, alu, mem []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	clone := func(v []float64) []float64 { return append([]float64(nil), v...) }
	return clone(p.speed), clone(p.alu), clone(p.mem)
}

// count is how many samples were taken.
func (p *speedProbe) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.speed)
}

// unsafeWords views a mapped byte region as 64-bit words.
func unsafeWords(b []byte) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}
