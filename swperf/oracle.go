package main

import (
	"fmt"
	"math"
	"sort"

	"smallworld/graph"
	"smallworld/keyspace"
	"smallworld/overlaynet"
)

// oracle answers lookups from a snapshot's raw data — the identifier
// of each slot, the identifiers in key order and the CSR rows — with
// code of the benchmark's own. The correctness gate compares sampled
// answers against it, so a wrong neighbour choice, distance or arrival
// rule in the routing kernel cannot pass by agreeing with itself.
type oracle struct {
	keys   []keyspace.Key // by slot
	sorted []keyspace.Key // ascending
	csr    *graph.CSR
}

func newOracle(s *overlaynet.Snapshot) *oracle {
	return &oracle{keys: s.Keys(), sorted: s.SortedKeys(), csr: s.CSR()}
}

// ringDist is the distance between two points of the unit ring.
func ringDist(a, b keyspace.Key) float64 {
	d := math.Abs(float64(a) - float64(b))
	if d > 0.5 {
		d = 1 - d
	}
	return d
}

// nearestDist is the distance from target to the closest identifier of
// ascending sorted, which must not be empty: the closer of target's
// successor and predecessor, wrapping round the ring.
func nearestDist(sorted []keyspace.Key, target keyspace.Key) float64 {
	n := len(sorted)
	i := sort.Search(n, func(i int) bool { return sorted[i] >= target })
	return min(ringDist(sorted[i%n], target), ringDist(sorted[(i+n-1)%n], target))
}

// walk routes greedily from src: while some out-neighbour is strictly
// closer to target than the current node, it steps to the closest. tie
// reports a step where another candidate stood at the chosen distance,
// or one at the current distance when none was closer: the kernel
// breaks such ties by direction of travel, so its path may differ
// there, and only arrival is then compared.
func (o *oracle) walk(src int, target keyspace.Key) (dest, hops int, tie bool) {
	cur, d := src, ringDist(o.keys[src], target)
	for ; hops <= 2*len(o.keys); hops++ {
		best, bestD := -1, d
		for _, v := range o.csr.Out(cur) {
			if dv := ringDist(o.keys[v], target); dv < bestD {
				best, bestD = int(v), dv
			}
		}
		for _, v := range o.csr.Out(cur) {
			if int(v) != best && ringDist(o.keys[v], target) == bestD {
				tie = true
			}
		}
		if best == -1 {
			break
		}
		cur, d = best, bestD
	}
	return cur, hops, tie
}

// check returns why got is a wrong answer to the lookup (src, target),
// or "" when it is right. Arrived must hold exactly when Dest is at the
// minimal distance to target over the whole population, and, unless the
// walk met a tie, Dest and Hops must equal the oracle's greedy walk.
// ties counts the answers whose path was not compared.
func (o *oracle) check(src int, target keyspace.Key, got overlaynet.Result, ties *int) string {
	if got.Dest < 0 || got.Dest >= len(o.keys) {
		return fmt.Sprintf("route %d -> %v: no destination (Dest %d)", src, target, got.Dest)
	}
	if at := ringDist(o.keys[got.Dest], target) == nearestDist(o.sorted, target); got.Arrived != at {
		return fmt.Sprintf("route %d -> %v: Arrived %v, but Dest %d is at the minimal distance: %v", src, target, got.Arrived, got.Dest, at)
	}
	dest, hops, tie := o.walk(src, target)
	if tie {
		*ties++
		return ""
	}
	if dest != got.Dest || hops != got.Hops {
		return fmt.Sprintf("route %d -> %v: Dest %d in %d hops, greedy walk gives %d in %d", src, target, got.Dest, got.Hops, dest, hops)
	}
	return ""
}
