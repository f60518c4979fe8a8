package router

import (
	"encoding/json"
	"net/http"

	"skipper/internal/stream"
	"skipper/internal/trace"
)

// Session migration: when a replica starts draining, the router pulls its
// live streaming sessions over the fleet channel — export seals the session
// at the source (a late window gets CodeMoved, never a stale answer) — and
// imports each one at its ring successor. Clients discover the new home by
// re-placing through /v1/stream/place and resume bit-identically from the
// migrated membrane state. An import failure re-imports the record at the
// source so state is never stranded in flight.

// migrateSessions drains every streaming session off b. Runs in its own
// goroutine (spawned on the draining transition), tracked by rt.wg.
func (rt *Router) migrateSessions(b *backend) {
	defer rt.wg.Done()
	rtyp, payload, err := rt.transport.mexchange(b.spec.FleetAddr, stream.TypeList, nil)
	if err != nil || rtyp != stream.TypeListing {
		// A replica dying faster than it drains has no sessions to offer;
		// its clients will resume from durable snapshots instead.
		rt.tracer.Event(trace.TrackRouter, "migrate_list_failed")
		return
	}
	var listing stream.ListingReply
	if err := json.Unmarshal(payload, &listing); err != nil {
		rt.tracer.Event(trace.TrackRouter, "migrate_list_failed")
		return
	}
	for _, id := range listing.Sessions {
		select {
		case <-rt.stop:
			return
		default:
		}
		if rt.migrateOne(b, id) {
			rt.metrics.sessionsMigrated.Inc()
		} else {
			rt.metrics.migrationFailures.Inc()
		}
	}
}

// migrateOne moves one session from the draining backend to its ring
// successor, reporting success.
func (rt *Router) migrateOne(src *backend, id string) bool {
	dst := rt.migrationTarget(id, src)
	if dst == nil {
		rt.tracer.Event(trace.TrackRouter, "migrate_no_target")
		return false
	}
	body, _ := json.Marshal(stream.ExportRequest{Session: id})
	rtyp, rec, err := rt.transport.mexchange(src.spec.FleetAddr, stream.TypeExport, body)
	if err != nil || rtyp != stream.TypeState {
		rt.tracer.Event(trace.TrackRouter, "migrate_export_failed")
		return false
	}
	rtyp, _, err = rt.transport.mexchange(dst.spec.FleetAddr, stream.TypeImport, rec)
	if err == nil && rtyp == stream.TypeImported {
		rt.tracer.Event(trace.TrackRouter, "migrate_session")
		return true
	}
	// The exported record is the only copy of the membrane state now; put
	// it back where it came from rather than lose it (the source is
	// draining, not dead — it can still snapshot the state durably).
	rt.tracer.Event(trace.TrackRouter, "migrate_import_failed")
	if rtyp, _, rerr := rt.transport.mexchange(src.spec.FleetAddr, stream.TypeImport, rec); rerr != nil || rtyp != stream.TypeImported {
		rt.tracer.Event(trace.TrackRouter, "migrate_reimport_failed")
	}
	return false
}

// migrationTarget picks where a draining backend's session should move: the
// first alive candidate on the session's ring walk that is not the source.
func (rt *Router) migrationTarget(id string, src *backend) *backend {
	for _, b := range rt.candidates(id) {
		if b == nil || b == src {
			continue
		}
		if b.State() == StateAlive {
			return b
		}
	}
	return nil
}

// handleStreamPlace answers GET /v1/stream/place?session=ID: which replica a
// streaming session should (re)connect to. The placement follows the same
// ring walk the migration uses, so a drained session's client is sent to the
// replica its state moved to.
func (rt *Router) handleStreamPlace(w http.ResponseWriter, r *http.Request) {
	session := r.URL.Query().Get("session")
	if session == "" {
		httpError(w, http.StatusBadRequest, "session query parameter required")
		return
	}
	for _, b := range rt.candidates(session) {
		if b != nil && b.State() == StateAlive {
			writeJSON(w, http.StatusOK, stream.Placement{
				Session:   session,
				URL:       b.spec.URL,
				FleetAddr: b.spec.FleetAddr,
			})
			return
		}
	}
	httpError(w, http.StatusServiceUnavailable, "no alive backend")
}
