package main

import (
	"math"
	"time"

	"smallworld/xrand"
)

// The host this benchmark was tuned on, a 2-vCPU KVM guest, changes
// speed by itself: between two ten-run sets made twenty minutes apart,
// the same code read 30–60% slower on store-churn, sim-lossy and
// lookup-local, with no steal to show for it, and a routing loop
// watched for eight minutes varied by 38% between 5-second stretches.
// The slowdown hits the whole machine at once. A fixed piece of
// benchmark-owned work — an ALU loop, a pointer chase through an
// L2-sized array and Go map updates — slowed with it: routing time
// divided by the geometric mean of the three parts' times varied by
// 6% over the same eight minutes, against 38% undivided.
//
// Each window is therefore followed by one measurement of that work,
// and the window's timings are divided by the host factor it gives
// (see windower). The program's code never runs inside the
// measurement, so a change to the program does not move the factor,
// and the measurement first walks its own data once untimed, so
// whatever the program left in the caches does not move it either.

// Sizes of the three parts. The chase covers a 1 MB array, inside one
// core's 2 MB L2 on the tuning host; the map holds 32k keys.
const (
	refALU     = 1 << 20
	refPermLen = 1 << 18
	refChase   = 1 << 19
	refMapKeys = 1 << 15
	refMapOps  = 1 << 17
	refSeed    = 0x2545f4914f6cdd1d
)

// refNominal is each part's time in milliseconds on the tuning host in
// a calm stretch, so that a host factor of 1 means that speed and the
// normalised timings read as microseconds on that host.
var refNominal = [3]float64{2.7, 5.1, 2.3}

// hostRef is the reference work. It is deterministic: the same sizes
// and the same seed on every run and every commit.
type hostRef struct {
	perm []uint32
	keys []uint64
	m    map[uint64]uint64
	sink uint64
}

func newHostRef() *hostRef {
	r := xrand.New(refSeed)
	// One random cycle through every slot, so the chase visits the
	// whole array in an order the prefetcher cannot follow.
	order := make([]uint32, refPermLen)
	for i := range order {
		order[i] = uint32(i)
	}
	for i := len(order) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	h := &hostRef{perm: make([]uint32, refPermLen), keys: make([]uint64, refMapKeys), m: make(map[uint64]uint64, refMapKeys)}
	for i, o := range order {
		h.perm[o] = order[(i+1)%len(order)]
	}
	for i := range h.keys {
		h.keys[i] = r.Uint64()
		h.m[h.keys[i]] = 0
	}
	return h
}

// factor measures the reference work once and returns the host factor:
// the geometric mean over the three parts of time ÷ nominal time. It
// is above 1 when the host is slower than the calm tuning host. A nil
// *hostRef measures nothing and returns 1.
func (h *hostRef) factor() float64 {
	if h == nil {
		return 1
	}
	var ms [3]float64
	x := h.sink | 1
	t0 := time.Now()
	for i := 0; i < refALU; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	ms[0] = msSince(t0)

	p := uint32(x % refPermLen)
	for i := 0; i < refPermLen; i++ { // untimed: warm the array
		p = h.perm[p]
	}
	t0 = time.Now()
	for i := 0; i < refChase; i++ {
		p = h.perm[p]
	}
	ms[1] = msSince(t0)

	for _, k := range h.keys { // untimed: warm the map
		h.m[k]++
	}
	t0 = time.Now()
	for i := 0; i < refMapOps; i++ {
		h.m[h.keys[(i*7919)%refMapKeys]] += uint64(i)
	}
	ms[2] = msSince(t0)

	h.sink = x + uint64(p)
	logSum := 0.0
	for i, v := range ms {
		logSum += math.Log(v / refNominal[i])
	}
	return math.Exp(logSum / float64(len(ms)))
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
