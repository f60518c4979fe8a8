// Package stream implements stateful streaming inference sessions: a
// long-lived framed-TCP connection feeds event windows continuously, the
// membrane state persists server-side in a Session between windows, and
// per-window predictions stream back as they are produced — the temporal
// analogue of the paper's time-skipping applied online. A window whose
// event count falls at or below the session's skip threshold advances the
// membranes as an empty window: the same forward on zero tensors, in which
// an all-zero image costs a bias add.
//
// Sessions are durable and movable: periodic snapshots via
// runstate.SessionStore survive a serve restart bit-identically, and the
// SessionExport/SessionImport frame pair lets the router drain-handoff live
// sessions between replicas without resetting state.
package stream

import (
	"fmt"
)

// Frame type bytes. Stream frames ride the same fleet connection as
// internal/serve's fleet protocol, whose types occupy 1..7; the stream
// namespace starts at 0x20 so the two dispatch tables can never collide.
const (
	// TypeOpen opens (or resumes) a session; payload OpenRequest,
	// reply TypeOpened with OpenReply.
	TypeOpen byte = 0x20 + iota
	// TypeOpened acknowledges an open.
	TypeOpened
	// TypeWindow feeds one event window; payload WindowRequest, reply
	// TypePred with WindowReply.
	TypeWindow
	// TypePred carries the per-window prediction.
	TypePred
	// TypeClose closes a session; payload CloseRequest, reply TypeClosed.
	TypeClose
	// TypeClosed acknowledges a close.
	TypeClosed
	// TypeExport seals a session and ships its state; payload
	// ExportRequest, reply TypeState with a raw runstate session record.
	TypeExport
	// TypeState carries an encoded runstate.SessionRecord.
	TypeState
	// TypeImport installs an exported record; payload is the raw record,
	// reply TypeImported with ImportedReply.
	TypeImport
	// TypeImported acknowledges an import.
	TypeImported
	// TypeList asks for the live session ids; empty payload, reply
	// TypeListing with ListingReply.
	TypeList
	// TypeListing carries the live session ids.
	TypeListing
	// TypeError is the failure reply to any stream request; payload
	// ErrorReply.
	TypeError byte = 0x2F
)

// IsStreamType reports whether a frame type byte belongs to the stream
// protocol (used by serve's fleet dispatch).
func IsStreamType(t byte) bool {
	return (t >= TypeOpen && t <= TypeListing) || t == TypeError
}

// Error codes carried by ErrorReply.
const (
	// CodeUnknownSession: no such live session (and no durable record when
	// resume was required).
	CodeUnknownSession = "unknown_session"
	// CodeMoved: the session was exported to another replica; re-place via
	// the router and resume there.
	CodeMoved = "moved"
	// CodeBadSeq: the window sequence number does not match the session
	// cursor; the reply's Window field tells the client where to resync.
	CodeBadSeq = "bad_seq"
	// CodeBadRequest: malformed payload or invalid field.
	CodeBadRequest = "bad_request"
	// CodeShutdown: the manager is shutting down.
	CodeShutdown = "shutdown"
	// CodeInternal: server-side failure.
	CodeInternal = "internal"
)

// OpenRequest opens a new session or resumes an existing one (live, or
// durable on disk, or imported from another replica).
type OpenRequest struct {
	Session string `json:"session"`
	// Seed is the session's RNG identity; recorded at creation and echoed
	// on resume so the client can verify stream identity.
	Seed uint64 `json:"seed,omitempty"`
	// SkipThreshold overrides the server's default activity gate for this
	// session: a window with at most this many events is skipped (stepped
	// as an empty window). 0 skips only empty windows (lossless); negative
	// disables skipping. Nil selects the server default.
	SkipThreshold *int `json:"skip_threshold,omitempty"`
	// RequireResume refuses to create a fresh session when no prior state
	// exists — the client knows it had state (e.g. after a migration) and
	// a silent reset would corrupt the stream.
	RequireResume bool `json:"require_resume,omitempty"`
}

// OpenReply acknowledges an open.
type OpenReply struct {
	Session string `json:"session"`
	// Resumed is true when prior membrane state was restored (live
	// registry, durable record, or import).
	Resumed bool `json:"resumed"`
	// Window is the next window sequence number the session expects.
	Window int `json:"window"`
	// Steps is the session's timestep cursor.
	Steps int    `json:"steps"`
	Seed  uint64 `json:"seed"`
	// InputLen and Classes describe the model's input volume (C·H·W) and
	// output width so a client can generate events without a side channel.
	InputLen      int    `json:"input_len"`
	Classes       int    `json:"classes"`
	SkipThreshold int    `json:"skip_threshold"`
	ModelVersion  uint64 `json:"model_version"`
}

// WindowRequest feeds one event window: Steps timesteps of sparse events.
// Events are flat (t, idx) pairs — timestep within the window and flat
// input index — each contributing a unit spike. Windows must arrive in
// sequence order; Seq must equal the session's window cursor.
type WindowRequest struct {
	Session string `json:"session"`
	Seq     int    `json:"seq"`
	Steps   int    `json:"steps"`
	// Events holds 2·k entries for k events: [t0, idx0, t1, idx1, ...].
	Events []uint32 `json:"events,omitempty"`
}

// WindowReply is the per-window prediction.
type WindowReply struct {
	Session string `json:"session"`
	Seq     int    `json:"seq"`
	// Pred is the argmax of the readout membrane after the window's last
	// timestep; Logits carries the full readout row.
	Pred   int       `json:"pred"`
	Logits []float32 `json:"logits"`
	// Skipped is true when the whole window was stepped as an empty one.
	Skipped bool `json:"skipped"`
	// Steps is the session's cumulative timestep cursor after this window.
	Steps int `json:"steps"`
}

// CloseRequest closes a session. With Snapshot set (and a durable store
// configured) the final state is persisted so the session can reopen later;
// otherwise the state is dropped.
type CloseRequest struct {
	Session  string `json:"session"`
	Snapshot bool   `json:"snapshot,omitempty"`
}

// ClosedReply acknowledges a close.
type ClosedReply struct {
	Session string `json:"session"`
	Window  int    `json:"window"`
}

// ExportRequest seals a session for migration. The export atomically
// removes the live session — subsequent windows get CodeMoved — and the
// reply carries the encoded runstate.SessionRecord.
type ExportRequest struct {
	Session string `json:"session"`
}

// ImportedReply acknowledges an import.
type ImportedReply struct {
	Session string `json:"session"`
	Window  int    `json:"window"`
}

// ListingReply carries the live session ids.
type ListingReply struct {
	Sessions []string `json:"sessions"`
}

// ErrorReply is the failure reply to any stream request.
type ErrorReply struct {
	Code  string `json:"code"`
	Error string `json:"error"`
	// Window carries the session's window cursor on CodeBadSeq so the
	// client can resync without a second round-trip.
	Window int `json:"window,omitempty"`
}

// Error is the typed error the manager and client surface; Code matches the
// wire codes above.
type Error struct {
	Code   string
	Msg    string
	Window int
}

func (e *Error) Error() string { return fmt.Sprintf("stream: %s: %s", e.Code, e.Msg) }

func errf(code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}
