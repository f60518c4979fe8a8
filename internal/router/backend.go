package router

import (
	"fmt"
	"net/url"
	"sync/atomic"
	"time"
)

// BackendState is a replica's health as the router sees it.
type BackendState int32

const (
	// StateUnknown is the pre-first-heartbeat state; the backend is not in
	// the ring yet.
	StateUnknown BackendState = iota
	// StateAlive backends are ring members taking traffic.
	StateAlive
	// StateDraining backends answered their last heartbeat but reported a
	// drain in progress: out of the ring, existing work finishing.
	StateDraining
	// StateDead backends missed DeadAfter consecutive heartbeats: out of
	// the ring until they answer again.
	StateDead
)

func (s BackendState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateDraining:
		return "draining"
	case StateDead:
		return "dead"
	default:
		return "unknown"
	}
}

// BackendSpec names one replica: its HTTP base URL (identity and control
// plane) and its framed-transport address (heartbeats and data path). Both
// are required.
type BackendSpec struct {
	// URL is the replica's HTTP base, e.g. "http://127.0.0.1:8080".
	URL string `json:"url"`
	// FleetAddr is the replica's framed-TCP listener (skipper-serve
	// -fleet-addr), e.g. "127.0.0.1:9090".
	FleetAddr string `json:"fleet_addr"`
}

func (s BackendSpec) validate() error {
	u, err := url.Parse(s.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("router: backend URL %q must be absolute (http://host:port)", s.URL)
	}
	if s.FleetAddr == "" {
		return fmt.Errorf("router: backend %s has no fleet address (give it as URL=FLEETADDR, the replica's -fleet-addr)", s.URL)
	}
	return nil
}

// backend is the router's live view of one replica. Hot-path fields are
// atomics so the request path reads them without the router lock; the
// heartbeat loop is the only writer of state transitions (under rt.mu).
type backend struct {
	spec BackendSpec
	id   string // ring identity: the URL

	state  atomic.Int32
	misses int // consecutive failed heartbeats; heartbeat loop only

	// drainAnnounced latches when the replica announces its own drain over
	// the fleet channel (serve.AnnounceDrain) or a peer gossips one it
	// received. It is sticky until the process actually dies — a pre-drain
	// heartbeat pong still reporting draining=false must not resurrect the
	// backend into the ring — and clears on death so a restarted process can
	// rejoin.
	drainAnnounced atomic.Bool

	// Probe schedule and recovery damping, all written under rt.mu:
	nextProbe time.Time // when this backend's next health probe is due
	flaps     int       // recent deaths (decays after flapWindow of quiet)
	lastDeath time.Time
	readmitAt time.Time // recovery before this instant stays out of the ring

	inflight atomic.Int64 // router-side in-flight requests

	// From the last successful heartbeat:
	version   atomic.Uint64 // model generation
	modelPath atomic.Value  // string: checkpoint path the generation came from
	capacity  atomic.Int64  // queueCap + workers·maxBatch, admission's denominator
	rttMicros atomic.Int64  // EWMA heartbeat round-trip, microseconds
}

func newBackend(spec BackendSpec) *backend {
	b := &backend{spec: spec, id: spec.URL}
	b.modelPath.Store("")
	return b
}

func (b *backend) State() BackendState { return BackendState(b.state.Load()) }

func (b *backend) setState(s BackendState) { b.state.Store(int32(s)) }

// observeRTT folds one heartbeat round-trip into the EWMA (α = 1/4).
func (b *backend) observeRTT(micros int64) {
	old := b.rttMicros.Load()
	if old == 0 {
		b.rttMicros.Store(micros)
		return
	}
	b.rttMicros.Store(old + (micros-old)/4)
}

// capacityOrDefault returns the backend's admission capacity, with a
// conservative default before the first heartbeat has reported real numbers.
func (b *backend) capacityOrDefault() int64 {
	if c := b.capacity.Load(); c > 0 {
		return c
	}
	return 64
}

// BackendInfo is the /v1/fleet JSON view of one backend.
type BackendInfo struct {
	URL          string  `json:"url"`
	FleetAddr    string  `json:"fleet_addr"`
	State        string  `json:"state"`
	ModelVersion uint64  `json:"model_version"`
	ModelPath    string  `json:"model_path,omitempty"`
	InFlight     int64   `json:"in_flight"`
	Capacity     int64   `json:"capacity"`
	RTTMillis    float64 `json:"rtt_ms"`
}

func (b *backend) info() BackendInfo {
	return BackendInfo{
		URL:          b.spec.URL,
		FleetAddr:    b.spec.FleetAddr,
		State:        b.State().String(),
		ModelVersion: b.version.Load(),
		ModelPath:    b.modelPath.Load().(string),
		InFlight:     b.inflight.Load(),
		Capacity:     b.capacityOrDefault(),
		RTTMillis:    float64(b.rttMicros.Load()) / 1000,
	}
}
