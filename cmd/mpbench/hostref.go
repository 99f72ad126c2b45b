package main

import (
	"time"
)

// The host these bounds were set on is a shared VM whose speed drifts by
// a fifth and more over minutes, mostly through contention for the memory
// system, so two runs minutes apart time the same code differently. Each
// run therefore also times a fixed reference kernel between its operations
// and scales its end-to-end times to the speed the reference has at
// refNominal. The kernel is part of the benchmark, not the simulator: no
// change to the simulator moves it, so the scaling cancels host drift but
// not a change to the simulator.
//
// The kernel chases pointers through a random cycle over 8 MiB (memory
// latency), then makes data-dependent branches on random lookups in a
// 512 KiB table (the L2 and the branch predictor, as the simulator's own
// tables do). Of the kernels tried against a fifteen-minute trace of suite
// passes, this pair tracked the passes' drift best (README.md).
const (
	refChainLen = 1 << 21 // 8 MiB of uint32 links
	refTableLen = 1 << 17 // 512 KiB of uint32 entries
	refChase    = 150_000 // links followed per sample
	refLookups  = 1_500_000
	// refNominal is the reference kernel's median time on the calibration
	// host (README.md): end-to-end times are reported at that host speed.
	refNominal = 30 * time.Millisecond
	// refEvery spaces the samples taken between operations.
	refEvery = time.Second
)

// hostMeter samples the reference kernel's time.
type hostMeter struct {
	chain   []uint32
	table   []uint32
	pos     uint32
	sink    uint32
	samples []float64 // seconds
	last    time.Time
}

// newHostMeter builds the chain, one cycle through every link, and the
// table, from a constant seed, so every run times the same kernel.
func newHostMeter() *hostMeter {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	perm := make([]uint32, refChainLen)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	chain := make([]uint32, refChainLen)
	for i, p := range perm {
		chain[p] = perm[(i+1)%len(perm)]
	}
	table := make([]uint32, refTableLen)
	for i := range table {
		table[i] = uint32(next())
	}
	return &hostMeter{chain: chain, table: table}
}

// reset drops the samples of an earlier run.
func (h *hostMeter) reset() { h.samples, h.last = nil, time.Time{} }

// sample times the reference kernel once.
func (h *hostMeter) sample() {
	start := time.Now()
	j := h.pos
	for i := 0; i < refChase; i++ {
		j = h.chain[j]
	}
	h.pos = j
	x, s := j|1, uint32(0)
	for i := 0; i < refLookups; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := h.table[x&(refTableLen-1)]
		if v&1 == 0 {
			s += v
		} else {
			s ^= v >> 3
		}
	}
	h.sink += s
	h.last = time.Now()
	h.samples = append(h.samples, h.last.Sub(start).Seconds())
}

// between is called between two operations; it samples when refEvery has
// passed since the last sample.
func (h *hostMeter) between() {
	if time.Since(h.last) >= refEvery {
		h.sample()
	}
}

// slowdown is the median reference time of the run over refNominal: how
// much slower than the calibration host this host ran.
func (h *hostMeter) slowdown() float64 {
	return median(h.samples) / refNominal.Seconds()
}
