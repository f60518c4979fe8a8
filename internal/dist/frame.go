// Package dist runs synchronous data-parallel SNN training across OS
// processes. A coordinator (doubling as rank 0) shards each global batch
// over TCP-connected workers; the per-round gradient reduction is pluggable
// behind the Collective interface, with two topologies:
//
//   - star (TopologyStar, the default): workers upload gradients to the
//     coordinator, which reduces them in deterministic ascending rank order
//     (core.ReduceGrads' order) and broadcasts the result.
//   - ring (TopologyRing): ranks forward gradient chunks around a ring —
//     each worker dials its ring successor directly over the framed
//     transport — in a pipelined reduce trip (rank 0 → W−1, accumulating in
//     ascending rank order) followed by a distribution trip, so every link
//     carries ~2/W of the traffic the star's coordinator link carries.
//
// Both topologies accumulate in the same ascending rank order, so the wire
// result is bit-identical to the in-process core.DataParallel simulation on
// the same shards — the network only moves bytes, it never re-rounds a
// float. Against plain serial training the match is exact-mean always, and
// bitwise when every shard holds at most one sample and the serial run
// accumulates per-sample (MicroBatch 1); see core.ShardGrads.
//
// Every round moves one gradient frame per rank per direction (the ring
// cuts it into chunks), and no configuration departs from that bit-identity.
//
// Failure semantics: gradient-phase faults (a worker dying mid-upload, a
// ring link dropping, a dispatch failing) abort the round before anyone
// steps — survivors discard it, the dead rank's seat is refilled by a
// reconnecting worker resynced from a runstate manifest, and the round
// replays deterministically (ring connections are rebuilt under a bumped
// ring version). Commit-phase faults (star broadcast, ring commit notify)
// commit the round: only the unreachable rank is vacated and later
// resynced.
package dist

// Message types on the coordinator↔worker control connection. The
// coordinator speaks Welcome/State/Ring/Assign/Reduced/Commit/Abort/Done,
// workers speak Hello/Grads/Stats, both may speak Error. Ring data
// connections speak RingHello/RingData only.
const (
	msgHello byte = iota + 1
	msgWelcome
	msgState
	msgAssign
	msgGrads
	msgReduced
	msgAbort
	msgDone
	msgError
	msgRing
	msgStats
	msgCommit
	msgRingHello
	msgRingData
)
