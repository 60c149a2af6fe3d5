package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"smallworld/graph"
	"smallworld/keyspace"
	"smallworld/overlaynet"
)

func TestNearestDistWrapsTheRing(t *testing.T) {
	sorted := []keyspace.Key{0.1, 0.4, 0.9}
	for _, c := range []struct {
		target keyspace.Key
		want   float64
	}{
		{0.1, 0}, {0.2, 0.1}, {0.3, 0.1}, {0.65, 0.25},
		{0.99, 0.09}, // past the last key: 0.9 is closer than 0.1
		{0.02, 0.08}, // before the first key: 0.1 is closer than 0.9
		{0.97, 0.07}, // wraps: 0.1 is 0.13 away, 0.9 is 0.07
	} {
		if got := nearestDist(sorted, c.target); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("nearestDist(%v) = %v, want %v", c.target, got, c.want)
		}
	}
}

// ringOracle is a six-node ring at keys 0, 0.1, …, 0.5 where every
// node links to its two key-order neighbours and node 0 also to node 3.
func ringOracle() *oracle {
	keys := []keyspace.Key{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	rows := [][]int32{{1, 3, 5}, {0, 2}, {1, 3}, {2, 4}, {3, 5}, {0, 4}}
	offsets, targets := []int32{0}, []int32(nil)
	for _, r := range rows {
		targets = append(targets, r...)
		offsets = append(offsets, int32(len(targets)))
	}
	return &oracle{keys: keys, sorted: keys, csr: graph.NewCSR(offsets, targets)}
}

func TestOracleWalkAndCheck(t *testing.T) {
	o := ringOracle()
	// From node 0 toward 0.31: the long link to node 3 lands in one hop.
	if dest, hops, tie := o.walk(0, 0.31); dest != 3 || hops != 1 || tie {
		t.Errorf("walk(0, 0.31) = %d in %d hops (tie %v), want 3 in 1", dest, hops, tie)
	}
	// From node 1 toward 0.44: 1 -> 2 -> 3 -> 4.
	if dest, hops, _ := o.walk(1, 0.44); dest != 4 || hops != 3 {
		t.Errorf("walk(1, 0.44) = %d in %d hops, want 4 in 3", dest, hops)
	}
	ties := 0
	good := overlaynet.Result{Dest: 4, Hops: 3, Arrived: true}
	if why := o.check(1, 0.44, good, &ties); why != "" {
		t.Errorf("a right answer failed: %s", why)
	}
	for _, bad := range []overlaynet.Result{
		{Dest: -1},                          // no destination
		{Dest: 100, Hops: 3, Arrived: true}, // not a node
		{Dest: 4, Hops: 3, Arrived: false},  // delivered but not said so
		{Dest: 3, Hops: 2, Arrived: true},   // stopped short, claims arrival
		{Dest: 4, Hops: 2, Arrived: true},   // wrong hop count
		{Dest: 3, Hops: 2, Arrived: false},  // stopped short
	} {
		if why := o.check(1, 0.44, bad, &ties); why == "" {
			t.Errorf("wrong answer %+v passed the oracle", bad)
		}
	}
	// Toward 0.05 from node 2, nodes 0 and 1 stand at the same distance
	// once reached: the path is not compared, only arrival.
	if dest, _, tie := o.walk(2, 0.05); !tie || (dest != 0 && dest != 1) {
		t.Errorf("walk(2, 0.05) = %d, tie %v; want a tie at node 0 or 1", dest, tie)
	}
	before := ties
	if why := o.check(2, 0.05, overlaynet.Result{Dest: 0, Hops: 9, Arrived: true}, &ties); why != "" || ties != before+1 {
		t.Errorf("tied answer: %q, ties %d -> %d", why, before, ties)
	}
	if why := o.check(2, 0.05, overlaynet.Result{Dest: 2, Hops: 0, Arrived: true}, &ties); !strings.Contains(why, "minimal distance") {
		t.Errorf("a false arrival on a tied walk passed: %q", why)
	}
}

func TestTracerSamplesOps(t *testing.T) {
	if got := sampleEvery(10); got != 1 {
		t.Errorf("sampleEvery(10) = %d, want 1", got)
	}
	if got := sampleEvery(maxSpans * 4); got != 8 {
		t.Errorf("sampleEvery(4 buffers) = %d, want 8", got)
	}
	tr := newTracers(1, 4)[0]
	now := time.Now()
	for op := int64(0); op < 40; op++ {
		tr.record("op", 0, 0, op, now, now)
	}
	tr.record("round", 0, 0, -1, now, now)
	if len(tr.spans) != 11 {
		t.Errorf("kept %d spans, want 10 sampled ops and the round", len(tr.spans))
	}
	var untraced *tracer
	if id := untraced.record("op", 0, 0, 0, now, now); id != 0 {
		t.Errorf("nil tracer returned id %d", id)
	}
}
