package router

import (
	"encoding/json"
	"net"
	"skipper/internal/frame"
	"sync"
	"time"

	"skipper/internal/serve"
	"skipper/internal/trace"
)

// The router peer channel: every router listens on Config.PeerListener for
// CRC-framed connections (frame.Write/frame.Read, the same envelope the
// fleet data path rides) carrying two protocols:
//
//   - peerSyncFrame/peerSyncAckFrame — router↔router state sync. Both
//     directions carry a full peerState JSON payload, so one round trip
//     converges both ends.
//   - serve.FleetDrainAnnounce/FleetDrainAck — replica→router drain
//     handoff. A replica beginning a graceful shutdown announces itself
//     before draining; the router vacates its arcs immediately instead of
//     waiting out a missed-heartbeat window.
//
// The frame-type bytes are disjoint (serve.Fleet* occupies 1..6, the peer
// sync pair sits at 16/17) so one listener serves both without ambiguity.
const (
	peerSyncFrame    byte = 16
	peerSyncAckFrame byte = 17
)

// peerLink is this router's outbound connection to one peer: a persistent
// framed conn redialed on failure, plus sync bookkeeping for /v1/fleet.
type peerLink struct {
	addr string
	kick chan struct{} // capacity 1; kickSync nudges an immediate sync

	mu       sync.Mutex
	conn     net.Conn
	id       string // peer id learned from its acks
	lastSync time.Time
	lastErr  string
}

func newPeerLink(addr string) *peerLink {
	return &peerLink{addr: addr, kick: make(chan struct{}, 1)}
}

// get returns the live connection, dialing if needed. Only the link's gossip
// goroutine calls it, so the dial is never raced.
func (l *peerLink) get(timeout time.Duration) (net.Conn, error) {
	l.mu.Lock()
	if l.conn != nil {
		c := l.conn
		l.mu.Unlock()
		return c, nil
	}
	l.mu.Unlock()
	c, err := net.DialTimeout("tcp", l.addr, timeout)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.conn = c
	l.mu.Unlock()
	return c, nil
}

// drop closes the connection so the next sync redials (the framed protocol
// has no re-synchronization after an error).
func (l *peerLink) drop() {
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.mu.Unlock()
}

func (l *peerLink) ok(peerID string, at time.Time) {
	l.mu.Lock()
	l.id = peerID
	l.lastSync = at
	l.lastErr = ""
	l.mu.Unlock()
}

func (l *peerLink) fail(err error) {
	l.mu.Lock()
	l.lastErr = err.Error()
	l.mu.Unlock()
}

// PeerInfo is the /v1/fleet view of one peer router.
type PeerInfo struct {
	Addr string `json:"addr"`
	ID   string `json:"id,omitempty"`
	// Synced reports whether the last completed sync is fresh enough for the
	// peer's suspicion votes to count toward quorum.
	Synced        bool    `json:"synced"`
	LastSyncAgoMS float64 `json:"last_sync_ago_ms,omitempty"`
	LastError     string  `json:"last_error,omitempty"`
}

func (l *peerLink) info(staleAfter time.Duration) PeerInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	pi := PeerInfo{Addr: l.addr, ID: l.id, LastError: l.lastErr}
	if !l.lastSync.IsZero() {
		ago := time.Since(l.lastSync)
		pi.LastSyncAgoMS = float64(ago.Microseconds()) / 1000
		pi.Synced = ago <= staleAfter
	}
	return pi
}

// peerConns tracks accepted peer-channel connections so Close can unblock
// their reads; add refuses once closed so a conn accepted during shutdown
// cannot leak its serving goroutine.
type peerConns struct {
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
}

func (p *peerConns) add(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	if p.conns == nil {
		p.conns = map[net.Conn]bool{}
	}
	p.conns[c] = true
	return true
}

func (p *peerConns) remove(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *peerConns) closeAll() {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.conns = nil
	p.mu.Unlock()
}

// peerAcceptLoop accepts peer-channel connections until the listener closes.
func (rt *Router) peerAcceptLoop() {
	defer rt.wg.Done()
	for {
		conn, err := rt.cfg.PeerListener.Accept()
		if err != nil {
			return // listener closed (shutdown) or fatal accept error
		}
		if !rt.inbound.add(conn) {
			conn.Close()
			return
		}
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			rt.servePeerConn(conn)
		}()
	}
}

// servePeerConn answers one peer-channel connection's frames until it closes
// or violates the protocol.
func (rt *Router) servePeerConn(conn net.Conn) {
	defer func() {
		rt.inbound.remove(conn)
		conn.Close()
	}()
	for {
		typ, payload, err := frame.Read(conn)
		if err != nil {
			return // EOF, torn connection, or bad frame: the dialer owns retry
		}
		switch typ {
		case peerSyncFrame:
			var st peerState
			if err := json.Unmarshal(payload, &st); err != nil {
				return
			}
			rt.mergePeerState(st)
			buf, err := json.Marshal(rt.localPeerState())
			if err != nil {
				return
			}
			conn.SetWriteDeadline(time.Now().Add(rt.syncTimeout()))
			if err := frame.Write(conn, peerSyncAckFrame, buf); err != nil {
				return
			}
			conn.SetWriteDeadline(time.Time{})
		case serve.FleetDrainAnnounce:
			var ann serve.DrainAnnouncement
			if err := json.Unmarshal(payload, &ann); err != nil {
				return
			}
			rt.handleDrainAnnounce(ann.URL)
			conn.SetWriteDeadline(time.Now().Add(rt.syncTimeout()))
			if err := frame.Write(conn, serve.FleetDrainAck, nil); err != nil {
				return
			}
			conn.SetWriteDeadline(time.Time{})
			// Relay the drain to the other routers right away, in case the
			// replica could not reach all of them itself.
			rt.kickSync()
		default:
			return // protocol violation: drop the connection
		}
	}
}

// handleDrainAnnounce processes a replica's shutdown announcement: the
// backend leaves the ring now, with zero missed-heartbeat window, and the
// drainAnnounced latch keeps a pre-drain heartbeat pong (still reporting
// draining=false) from resurrecting it. The latch clears on death, so a
// restarted process rejoins normally.
func (rt *Router) handleDrainAnnounce(url string) {
	rt.mu.Lock()
	b := rt.backends[url]
	if b == nil {
		rt.mu.Unlock()
		return
	}
	first := !b.drainAnnounced.Swap(true)
	if b.State() != StateDead {
		rt.setDrainingLocked(b)
	}
	rt.mu.Unlock()
	// Count every direct announcement, even when a gossip relay from another
	// router latched the drain first — the metric tracks frames accepted on
	// this peer channel, not which path won the race.
	rt.metrics.drainAnnounces.Inc()
	if first {
		rt.tracer.Event(trace.TrackRouter, "drain_announced")
	}
}
