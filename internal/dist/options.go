package dist

import "fmt"

// Topology selects the round's gradient-combination wiring.
const (
	// TopologyStar: workers upload to the coordinator, which reduces in
	// ascending rank order and broadcasts the result. Simple, minimal
	// connection count, coordinator link is the bottleneck.
	TopologyStar = "star"
	// TopologyRing: ranks forward gradient chunks around a ring (each rank
	// dials its successor); the coordinator link carries ~2/W of the star's
	// traffic. Bit-identical to star — the reduce trip accumulates in the
	// same ascending rank order.
	TopologyRing = "ring"
)

// Options are the exchange knobs shared by the coordinator and workers.
// Topology is part of the lock-step contract and validated at handshake: a
// worker whose topology differs from the coordinator's is rejected as
// permanently misconfigured.
type Options struct {
	// Topology is TopologyStar (default) or TopologyRing.
	Topology string
	// RingListen is the address the rank's ring-data listener binds
	// (TopologyRing only). Empty means 127.0.0.1:0.
	RingListen string
}

func (o Options) withDefaults() Options {
	if o.Topology == "" {
		o.Topology = TopologyStar
	}
	if o.RingListen == "" {
		o.RingListen = "127.0.0.1:0"
	}
	return o
}

// Validate rejects unknown topology names.
func (o Options) Validate() error {
	switch o.Topology {
	case "", TopologyStar, TopologyRing:
		return nil
	default:
		return fmt.Errorf("dist: unknown topology %q (want %s or %s)", o.Topology, TopologyStar, TopologyRing)
	}
}
