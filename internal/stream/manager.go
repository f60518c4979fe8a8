package stream

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"skipper/internal/faults"
	"skipper/internal/layers"
	"skipper/internal/metrics"
	"skipper/internal/parallel"
	"skipper/internal/runstate"
	"skipper/internal/trace"
)

// Config parameterises a session Manager.
type Config struct {
	// Build constructs the serving architecture; each session owns a
	// private replica (layer scratch is not concurrency-safe).
	Build func() (*layers.Network, error)
	// Source returns the currently published weights and their checkpoint
	// generation; a session copies them once at open and is pinned to that
	// generation for its whole life.
	Source func() (*layers.Network, uint64)
	// Pool is the shared compute pool session forwards run on.
	Pool *parallel.Pool
	// Store, when non-nil, makes sessions durable: periodic snapshots, a
	// snapshot at eviction/shutdown, and open-time resume from disk.
	Store *runstate.SessionStore
	// TTL evicts a session idle longer than this (snapshotting it first
	// when durable). Zero means 5 minutes.
	TTL time.Duration
	// SnapshotEvery snapshots a durable session every N completed windows.
	// Zero means 8; negative disables periodic snapshots.
	SnapshotEvery int
	// SkipThreshold is the default activity gate: a window with at most
	// this many events is stepped as an empty window. 0 (the default)
	// skips only empty windows — lossless; negative disables skipping.
	SkipThreshold int
	// MaxSessions bounds the live registry. Zero means 256.
	MaxSessions int
	// Clock abstracts time for TTL accounting. Nil means wall clock.
	Clock  faults.Clock
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.TTL <= 0 {
		c.TTL = 5 * time.Minute
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 8
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.Clock == nil {
		c.Clock = faults.Wall
	}
	return c
}

// Manager is the serve-side session registry: it owns every live Session,
// resolves the stream frame protocol, evicts idle sessions, and snapshots
// durable ones.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session
	stopped  bool

	stop chan struct{}
	wg   sync.WaitGroup

	opened    atomic.Int64
	resumed   atomic.Int64
	imported  atomic.Int64
	exported  atomic.Int64
	evicted   atomic.Int64
	windows   atomic.Int64
	skipped   atomic.Int64
	quiet     atomic.Int64
	full      atomic.Int64
	snapshots atomic.Int64
	snapFails atomic.Int64
}

// NewManager validates the config and starts the eviction loop.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Build == nil || cfg.Source == nil {
		return nil, fmt.Errorf("stream: Config.Build and Config.Source are required")
	}
	m := &Manager{
		cfg:      cfg.withDefaults(),
		sessions: make(map[string]*Session),
		stop:     make(chan struct{}),
	}
	m.wg.Add(1)
	go m.evictLoop()
	return m, nil
}

// Count returns the number of live sessions.
func (m *Manager) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// List returns the live session ids.
func (m *Manager) List() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	return ids
}

// live returns the live sessions, to be visited without holding m.mu.
func (m *Manager) live() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	all := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
	}
	return all
}

func (m *Manager) event(name string, attrs ...trace.Attr) {
	if m.cfg.Tracer != nil {
		m.cfg.Tracer.Event(trace.TrackStream, name, attrs...)
	}
}

// lookup fetches a live session, touching its activity stamp.
func (m *Manager) lookup(id string) (*Session, *Error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return nil, errf(CodeShutdown, "session manager is shut down")
	}
	s, ok := m.sessions[id]
	if !ok {
		return nil, errf(CodeUnknownSession, "no live session %q", id)
	}
	return s, nil
}

// Open opens or resumes a session: live registry first, then the durable
// store, else a fresh session (unless the client requires resume).
func (m *Manager) Open(req OpenRequest) (OpenReply, *Error) {
	if !runstate.ValidSessionID(req.Session) {
		return OpenReply{}, errf(CodeBadRequest, "invalid session id %q", req.Session)
	}
	threshold := m.cfg.SkipThreshold
	if req.SkipThreshold != nil {
		threshold = *req.SkipThreshold
	}

	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return OpenReply{}, errf(CodeShutdown, "session manager is shut down")
	}
	if s, ok := m.sessions[req.Session]; ok {
		m.mu.Unlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.sealed {
			return OpenReply{}, errf(CodeMoved, "session %s was exported to another replica", s.ID)
		}
		s.lastActive = m.cfg.Clock.Now()
		m.resumed.Add(1)
		m.event("stream_resume_live")
		return s.openReply(true), nil
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		return OpenReply{}, errf(CodeInternal, "session registry full (%d)", m.cfg.MaxSessions)
	}
	m.mu.Unlock()

	// Try the durable store before creating fresh state.
	if m.cfg.Store != nil && m.cfg.Store.Exists(req.Session) {
		rec, err := m.cfg.Store.Load(req.Session)
		if err != nil {
			return OpenReply{}, errf(CodeInternal, "loading session record: %v", err)
		}
		s, serr := m.install(rec)
		if serr != nil {
			return OpenReply{}, serr
		}
		m.resumed.Add(1)
		m.event("stream_resume_disk", trace.Attr{Key: "window", Val: int64(s.window)})
		return s.openReply(true), nil
	}
	if req.RequireResume {
		return OpenReply{}, errf(CodeUnknownSession, "session %q has no prior state to resume", req.Session)
	}

	s, err := newSession(m.cfg, req.Session, req.Seed, threshold)
	if err != nil {
		return OpenReply{}, errf(CodeInternal, "building session: %v", err)
	}
	if serr := m.add(s); serr != nil {
		return OpenReply{}, serr
	}
	m.opened.Add(1)
	m.event("stream_open")
	return s.openReply(false), nil
}

// install builds a session from a state record and registers it.
func (m *Manager) install(rec *runstate.SessionRecord) (*Session, *Error) {
	if rec.Meta.Batch != 1 {
		return nil, errf(CodeBadRequest, "session record batch %d unsupported", rec.Meta.Batch)
	}
	s, err := newSession(m.cfg, rec.Meta.ID, rec.Meta.Seed, rec.Meta.SkipThreshold)
	if err != nil {
		return nil, errf(CodeInternal, "building session: %v", err)
	}
	if serr := s.restore(rec); serr != nil {
		return nil, serr
	}
	if serr := m.add(s); serr != nil {
		return nil, serr
	}
	return s, nil
}

// add registers a freshly built session (losing the race to a concurrent
// open of the same id is an error: membrane state must never fork).
func (m *Manager) add(s *Session) *Error {
	s.lastActive = m.cfg.Clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return errf(CodeShutdown, "session manager is shut down")
	}
	if _, dup := m.sessions[s.ID]; dup {
		return errf(CodeBadRequest, "session %q already live", s.ID)
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		return errf(CodeInternal, "session registry full (%d)", m.cfg.MaxSessions)
	}
	m.sessions[s.ID] = s
	return nil
}

// Window feeds one event window through its session.
func (m *Manager) Window(req WindowRequest) (WindowReply, *Error) {
	s, serr := m.lookup(req.Session)
	if serr != nil {
		return WindowReply{}, serr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	q0, f0 := s.stream.QuietSteps, s.stream.FullSteps
	rep, serr := s.runWindow(req)
	if serr != nil {
		return WindowReply{}, serr
	}
	s.lastActive = m.cfg.Clock.Now()
	m.windows.Add(1)
	m.quiet.Add(s.stream.QuietSteps - q0)
	m.full.Add(s.stream.FullSteps - f0)
	if rep.Skipped {
		m.skipped.Add(1)
		m.event("stream_window_skipped", trace.Attr{Key: "steps", Val: int64(req.Steps)})
	}
	if m.cfg.Store != nil && m.cfg.SnapshotEvery > 0 && s.window%m.cfg.SnapshotEvery == 0 {
		m.snapshotLocked(s)
	}
	return rep, nil
}

// snapshotLocked persists a durable snapshot; failures are counted and
// traced but never kill the live session (the stream stays correct, it just
// loses crash durability back to the previous snapshot). Caller holds s.mu.
func (m *Manager) snapshotLocked(s *Session) {
	rec, err := s.record()
	if err == nil {
		err = m.cfg.Store.Save(rec)
	}
	if err != nil {
		m.snapFails.Add(1)
		m.event("stream_snapshot_fail")
		return
	}
	m.snapshots.Add(1)
	m.event("stream_snapshot", trace.Attr{Key: "window", Val: int64(s.window)})
}

// CloseSession ends a session, optionally snapshotting its final state.
func (m *Manager) CloseSession(req CloseRequest) (ClosedReply, *Error) {
	s, serr := m.lookup(req.Session)
	if serr != nil {
		return ClosedReply{}, serr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Snapshot && m.cfg.Store != nil {
		m.snapshotLocked(s)
	} else if m.cfg.Store != nil {
		// An explicit drop also clears any stale durable record so a later
		// open of the same id starts fresh.
		_ = m.cfg.Store.Remove(s.ID)
	}
	m.remove(s.ID)
	return ClosedReply{Session: s.ID, Window: s.window}, nil
}

func (m *Manager) remove(id string) {
	m.mu.Lock()
	delete(m.sessions, id)
	m.mu.Unlock()
}

// Export seals a session and returns its encoded state record for
// migration. The session atomically leaves the live registry — a window
// arriving after the export gets CodeMoved, never a stale answer — and its
// durable record (if any) is removed so a restart cannot resurrect the
// pre-migration state.
func (m *Manager) Export(id string) ([]byte, *Error) {
	s, serr := m.lookup(id)
	if serr != nil {
		return nil, serr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return nil, errf(CodeMoved, "session %s already exported", id)
	}
	rec, err := s.record()
	if err != nil {
		return nil, errf(CodeInternal, "capturing session: %v", err)
	}
	raw, err := rec.Encode()
	if err != nil {
		return nil, errf(CodeInternal, "encoding session: %v", err)
	}
	s.sealed = true
	m.remove(id)
	if m.cfg.Store != nil {
		_ = m.cfg.Store.Remove(id)
	}
	m.exported.Add(1)
	m.event("stream_export", trace.Attr{Key: "window", Val: int64(s.window)})
	return raw, nil
}

// Import installs an exported record as a live session on this replica.
func (m *Manager) Import(raw []byte) (ImportedReply, *Error) {
	rec, err := runstate.DecodeSession(raw)
	if err != nil {
		return ImportedReply{}, errf(CodeBadRequest, "decoding session record: %v", err)
	}
	if !runstate.ValidSessionID(rec.Meta.ID) {
		return ImportedReply{}, errf(CodeBadRequest, "invalid session id %q", rec.Meta.ID)
	}
	s, serr := m.install(rec)
	if serr != nil {
		return ImportedReply{}, serr
	}
	// Imported sessions become durable here immediately: if this replica
	// dies before the first periodic snapshot, the state must not be lost
	// (the exporter already discarded its copy).
	if m.cfg.Store != nil {
		s.mu.Lock()
		m.snapshotLocked(s)
		s.mu.Unlock()
	}
	m.imported.Add(1)
	m.event("stream_import", trace.Attr{Key: "window", Val: int64(s.window)})
	return ImportedReply{Session: s.ID, Window: s.window}, nil
}

// SnapshotAll persists every live durable session, returning how many were
// saved. Used at drain/shutdown.
func (m *Manager) SnapshotAll() int {
	if m.cfg.Store == nil {
		return 0
	}
	n := 0
	for _, s := range m.live() {
		s.mu.Lock()
		before := m.snapshots.Load()
		m.snapshotLocked(s)
		if m.snapshots.Load() > before {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// WaitEmpty blocks until every live session has left (migrated or closed)
// or the context expires, reporting whether the registry emptied. Used by
// the drain path to give the router time to pull sessions away.
func (m *Manager) WaitEmpty(ctx context.Context) bool {
	for {
		if m.Count() == 0 {
			return true
		}
		select {
		case <-ctx.Done():
			return m.Count() == 0
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// Shutdown stops the eviction loop, snapshots every remaining durable
// session, and refuses further requests.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()
	close(m.stop)
	m.wg.Wait()
	// stopped blocks new opens/windows; in-flight windows hold session
	// locks, which SnapshotAll acquires, so every snapshot is a window
	// boundary.
	m.SnapshotAll()
}

func (m *Manager) evictLoop() {
	defer m.wg.Done()
	tick := m.cfg.TTL / 4
	if tick > time.Second {
		tick = time.Second
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.evictIdle()
		}
	}
}

func (m *Manager) evictIdle() {
	now := m.cfg.Clock.Now()
	for _, s := range m.live() {
		// lastActive is written under the session's own lock, so idleness
		// is decided under it too.
		s.mu.Lock()
		if now.Sub(s.lastActive) > m.cfg.TTL && !s.sealed {
			if m.cfg.Store != nil {
				m.snapshotLocked(s)
			}
			m.remove(s.ID)
			m.evicted.Add(1)
			m.event("stream_evict", trace.Attr{Key: "window", Val: int64(s.window)})
		}
		s.mu.Unlock()
	}
}

// HandleFrame resolves one stream-protocol request to its reply frame — the
// pure request/response core that serve's fleet loop (plain or multiplexed)
// dispatches into.
func (m *Manager) HandleFrame(typ byte, payload []byte) (byte, []byte) {
	switch typ {
	case TypeOpen:
		var req OpenRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return errorFrame(errf(CodeBadRequest, "open: %v", err))
		}
		rep, serr := m.Open(req)
		if serr != nil {
			return errorFrame(serr)
		}
		return marshalFrame(TypeOpened, rep)
	case TypeWindow:
		var req WindowRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return errorFrame(errf(CodeBadRequest, "window: %v", err))
		}
		rep, serr := m.Window(req)
		if serr != nil {
			return errorFrame(serr)
		}
		return marshalFrame(TypePred, rep)
	case TypeClose:
		var req CloseRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return errorFrame(errf(CodeBadRequest, "close: %v", err))
		}
		rep, serr := m.CloseSession(req)
		if serr != nil {
			return errorFrame(serr)
		}
		return marshalFrame(TypeClosed, rep)
	case TypeExport:
		var req ExportRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return errorFrame(errf(CodeBadRequest, "export: %v", err))
		}
		raw, serr := m.Export(req.Session)
		if serr != nil {
			return errorFrame(serr)
		}
		return TypeState, raw
	case TypeImport:
		rep, serr := m.Import(payload)
		if serr != nil {
			return errorFrame(serr)
		}
		return marshalFrame(TypeImported, rep)
	case TypeList:
		return marshalFrame(TypeListing, ListingReply{Sessions: m.List()})
	default:
		return errorFrame(errf(CodeBadRequest, "unknown stream frame type 0x%02x", typ))
	}
}

func marshalFrame(typ byte, v any) (byte, []byte) {
	buf, err := json.Marshal(v)
	if err != nil {
		return errorFrame(errf(CodeInternal, "encoding reply: %v", err))
	}
	return typ, buf
}

func errorFrame(e *Error) (byte, []byte) {
	buf, _ := json.Marshal(ErrorReply{Code: e.Code, Error: e.Msg, Window: e.Window})
	return TypeError, buf
}

// Register adds the manager's families to a /metrics page (serve's, after
// its own).
func (m *Manager) Register(r *metrics.Registry) {
	metrics.GaugeFunc(r, "skipper_stream_sessions_active", "Live streaming sessions.", func() int64 { return int64(m.Count()) })
	r.CounterFunc("skipper_stream_sessions_opened_total", "Sessions created fresh.", m.opened.Load)
	r.CounterFunc("skipper_stream_sessions_resumed_total", "Session opens that restored prior state.", m.resumed.Load)
	r.CounterFunc("skipper_stream_sessions_imported_total", "Sessions imported from another replica.", m.imported.Load)
	r.CounterFunc("skipper_stream_sessions_exported_total", "Sessions exported for migration.", m.exported.Load)
	r.CounterFunc("skipper_stream_sessions_evicted_total", "Idle sessions evicted by TTL.", m.evicted.Load)
	r.CounterFunc("skipper_stream_windows_total", "Event windows processed.", m.windows.Load)
	r.CounterFunc("skipper_stream_windows_skipped_total", "Windows stepped as empty windows by the activity gate.", m.skipped.Load)
	r.CounterFunc("skipper_stream_steps_quiet_total", "Timesteps stepped on an all-zero input.", m.quiet.Load)
	r.CounterFunc("skipper_stream_steps_full_total", "Timesteps advanced by the full forward.", m.full.Load)
	r.CounterFunc("skipper_stream_snapshots_total", "Durable session snapshots written.", m.snapshots.Load)
	r.CounterFunc("skipper_stream_snapshot_failures_total", "Session snapshot attempts that failed.", m.snapFails.Load)
}
