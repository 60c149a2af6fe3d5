package sim_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"smallworld/sim"
)

// flightTally is the part of a run's Totals the message plane decides:
// query fates, resends, membership, and the hop and latency means as
// IEEE bit patterns, so a one-ulp drift in any flight's clock shows.
type flightTally struct {
	Queries, Arrived, Failures, Timeouts int
	Degraded, Unroutable, Retries        int
	Joins, Leaves                        int
	MeanHopsBits, MeanLatencyBits        uint64
}

func tallyFlights(t sim.Totals) flightTally {
	return flightTally{
		Queries: t.Queries, Arrived: t.Arrived, Failures: t.Failures, Timeouts: t.Timeouts,
		Degraded: t.Degraded, Unroutable: t.Unroutable, Retries: t.Retries,
		Joins: t.Joins, Leaves: t.Leaves,
		MeanHopsBits:    math.Float64bits(t.MeanHops()),
		MeanLatencyBits: math.Float64bits(t.MeanLatency()),
	}
}

// TestFlightGolden pins the message plane's exact answers on fixed
// seeds for the three fault presets: lossy (retry, backoff jitter and
// fallback under loss), byzantine (hijack detours and drops) and
// partition-heal (unroutable stops across the cut, then recovery).
// Any change to candidate order, the faultRNG draw order or the stop
// verdict moves these numbers.
func TestFlightGolden(t *testing.T) {
	want := map[string]flightTally{
		"lossy": {Queries: 1267, Arrived: 1267, Failures: 0, Timeouts: 0, Degraded: 199, Unroutable: 0, Retries: 234,
			Joins: 11, Leaves: 14, MeanHopsBits: 0x4009b7aa547530b2, MeanLatencyBits: 0x3f9839cd74935e34},
		"byzantine": {Queries: 1267, Arrived: 1234, Failures: 33, Timeouts: 33, Degraded: 240, Unroutable: 0, Retries: 259,
			Joins: 11, Leaves: 14, MeanHopsBits: 0x400df38d7c0eefd2, MeanLatencyBits: 0x3f9ac0ac33936a95},
		"partition-heal": {Queries: 1268, Arrived: 1158, Failures: 110, Timeouts: 0, Degraded: 23, Unroutable: 110, Retries: 1977,
			Joins: 0, Leaves: 0, MeanHopsBits: 0x400a397a79259500, MeanLatencyBits: 0x3f999affe6915c1d},
	}
	for name, w := range want {
		sc, err := sim.Preset(name, 128)
		if err != nil {
			t.Fatal(err)
		}
		sc.Seed = 12
		rep, err := sim.Run(context.Background(), buildProtocol(t, 128, 9), sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g := tallyFlights(rep.Totals); g != w {
			t.Errorf("%s: got %s\nwant %+v", name, fmt.Sprintf("%#v", g), w)
		}
	}
}
