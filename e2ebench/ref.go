package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// refKernel is a fixed amount of work that shares no code with the
// simulator. Each of GOMAXPROCS goroutines sorts a small slice and probes
// a table that fits in the L2 cache, then walks a dependent random chain
// through a table of cache size, the two costs the workloads are made of.
// Its host time says how fast this host runs code at the moment. On a
// shared VM that speed drifts by tens of percent over minutes as other
// tenants come and go, and the benchmark divides its host times by the
// kernel's (see speedFactor).
type refKernel struct {
	keys, buf    [][]uint32
	table, chain [][]uint64
}

const (
	refSort   = 1 << 12 // keys per sort
	refSorts  = 16
	refTable  = 1 << 15 // uint64 entries per probed table: 256 KiB
	refProbes = 1 << 19
	refChain  = 1 << 19 // uint64 entries per chained table: 4 MiB
	refSteps  = 1 << 17
	// refSamples is how many times refKernel.time runs the kernel; it
	// keeps the fastest, which a timer interrupt or a stolen tick missed.
	refSamples = 3
	// refNominal is about what the kernel takes on the 2-vCPU Xeon VM
	// the benchmark was tuned on. Times scaled by refNominal over the
	// kernel's measured time read as seconds on that VM.
	refNominal = 28 * time.Millisecond
)

func newRefKernel() *refKernel {
	k := &refKernel{}
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 { // xorshift64: the same tables on every run
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		keys := make([]uint32, refSort)
		for i := range keys {
			keys[i] = uint32(rnd())
		}
		chain := make([]uint64, refChain)
		for i := range chain {
			chain[i] = rnd()
		}
		k.keys = append(k.keys, keys)
		k.buf = append(k.buf, make([]uint32, refSort))
		k.table = append(k.table, make([]uint64, refTable))
		k.chain = append(k.chain, chain)
	}
	return k
}

// time runs the kernel refSamples times and returns the fastest.
func (k *refKernel) time() time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < refSamples; i++ {
		best = min(best, k.once())
	}
	return best
}

// once runs the kernel on every goroutine and returns the wall time.
func (k *refKernel) once() time.Duration {
	var wg sync.WaitGroup
	t := time.Now()
	for g := range k.keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, tab, chain := k.buf[g], k.table[g], k.chain[g]
			for i := 0; i < refSorts; i++ {
				copy(buf, k.keys[g])
				slices.Sort(buf)
			}
			h := uint64(buf[g%refSort])
			for i := 0; i < refProbes; i++ {
				h = h*0x9e3779b97f4a7c15 + uint64(i)
				j := (h >> 40) & (refTable - 1)
				tab[j] += h
				h ^= tab[(j*7)&(refTable-1)]
			}
			for i := 0; i < refSteps; i++ {
				j := h & (refChain - 1)
				chain[j] += uint64(i)
				h = chain[j] * 0x9e3779b97f4a7c15 >> 20
			}
		}()
	}
	wg.Wait()
	return time.Since(t)
}
