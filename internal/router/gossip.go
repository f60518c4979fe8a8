package router

import (
	"encoding/json"
	"fmt"
	"skipper/internal/frame"
	"time"
)

// peerState is the full replicated state one router shares with a peer on
// every sync: backend membership (specs, so a peer learns replicas it was not
// configured with), this router's suspicion votes, announced drains, the
// canary registry, and the admission config. Syncs are bidirectional — the
// initiator sends its state and the responder acks with its own — so a single
// round trip converges both ends, and a freshly restarted router repopulates
// everything from the first peer it reaches.
type peerState struct {
	PeerID    string         `json:"peer_id"`
	Backends  []BackendSpec  `json:"backends,omitempty"`
	Suspects  []string       `json:"suspects,omitempty"`
	Draining  []string       `json:"draining,omitempty"`
	Registry  registryState  `json:"registry"`
	Admission admissionState `json:"admission"`
}

// localPeerState snapshots this router's replicated state.
func (rt *Router) localPeerState() peerState {
	st := peerState{
		PeerID:    rt.cfg.PeerID,
		Suspects:  rt.susp.selfVotes(),
		Registry:  rt.registry.state(),
		Admission: rt.admission.state(),
	}
	rt.mu.RLock()
	for _, id := range rt.order {
		b := rt.backends[id]
		st.Backends = append(st.Backends, b.spec)
		if b.drainAnnounced.Load() {
			st.Draining = append(st.Draining, b.id)
		}
	}
	rt.mu.RUnlock()
	return st
}

// mergePeerState folds one peer's state into this router:
//
//   - its suspicion votes replace its previous ballot (quorum recount below);
//   - the registry and admission config adopt whichever side's version wins,
//     so canary runs and promote/rollback history replicate everywhere;
//   - unknown backends join the local table (they enter the ring once a
//     local probe confirms them — membership gossips, health stays local);
//   - announced drains latch here too, covering a replica that could not
//     reach every router itself;
//   - backends the refreshed vote count now confirms dead are killed.
func (rt *Router) mergePeerState(st peerState) {
	if st.PeerID == "" || st.PeerID == rt.cfg.PeerID {
		return
	}
	rt.susp.record(st.PeerID, st.Suspects)
	rt.registry.adopt(st.Registry)
	rt.admission.adopt(st.Admission)

	now := time.Now()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, spec := range st.Backends {
		if spec.validate() != nil {
			continue
		}
		if _, known := rt.backends[spec.URL]; known {
			continue
		}
		rt.backends[spec.URL] = newBackend(spec)
		rt.order = append(rt.order, spec.URL)
	}
	for _, id := range st.Draining {
		b := rt.backends[id]
		if b == nil || b.State() == StateDead {
			continue
		}
		b.drainAnnounced.Store(true)
		rt.setDrainingLocked(b)
	}
	for _, b := range rt.backends {
		if b.State() != StateDead && rt.susp.confirmed(b.id) {
			rt.killBackendLocked(b, now)
		}
	}
	// An adopted canary run must pull its backend out of the main ring here
	// too; an adopted run end is undone lazily (the next heartbeat pass
	// re-rings the healthy ex-canary).
	if canaryID, _ := rt.registry.active(); canaryID != "" && rt.ring.Has(canaryID) {
		rt.ring.Remove(canaryID)
		rt.metrics.remaps.Inc()
	}
}

// gossipLoop drives one peer link: a sync every SyncInterval, plus immediate
// syncs when kickSync signals urgent news (a new suspicion vote, an announced
// drain, a config mutation).
func (rt *Router) gossipLoop(link *peerLink) {
	defer rt.wg.Done()
	tick := time.NewTicker(rt.cfg.SyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			link.drop()
			return
		case <-tick.C:
		case <-link.kick:
		}
		if err := rt.syncPeer(link); err != nil {
			link.fail(err)
			rt.metrics.peerSyncFailures.Inc()
		} else {
			rt.metrics.peerSyncs.Inc()
		}
	}
}

// syncPeer runs one sync round trip with a peer: send local state, read the
// peer's state back, merge it.
func (rt *Router) syncPeer(link *peerLink) error {
	conn, err := link.get(rt.syncTimeout())
	if err != nil {
		return err
	}
	payload, err := json.Marshal(rt.localPeerState())
	if err != nil {
		return err
	}
	conn.SetDeadline(time.Now().Add(rt.syncTimeout()))
	if err := frame.Write(conn, peerSyncFrame, payload); err != nil {
		link.drop()
		return err
	}
	typ, resp, err := frame.Read(conn)
	if err != nil {
		link.drop()
		return err
	}
	if typ != peerSyncAckFrame {
		link.drop()
		return fmt.Errorf("router: peer sync ack frame type %d, want %d", typ, peerSyncAckFrame)
	}
	conn.SetDeadline(time.Time{})
	var st peerState
	if err := json.Unmarshal(resp, &st); err != nil {
		link.drop()
		return err
	}
	rt.mergePeerState(st)
	link.ok(st.PeerID, time.Now())
	return nil
}

// kickSync nudges every peer link to sync now instead of waiting out the
// interval. Non-blocking; a link already kicked absorbs the extra nudge.
func (rt *Router) kickSync() {
	for _, l := range rt.peers {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
}

// syncTimeout bounds one peer dial or sync exchange. Derived from the sync
// interval (not RequestTimeout) so a hung peer stalls its link for a couple
// of rounds, not 30s.
func (rt *Router) syncTimeout() time.Duration {
	t := 2 * rt.cfg.SyncInterval
	if t < time.Second {
		t = time.Second
	}
	return t
}
