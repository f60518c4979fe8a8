package stream

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"skipper/internal/faults"
	"skipper/internal/layers"
	"skipper/internal/models"
	"skipper/internal/runstate"
)

// testBuild is the streaming topology under test: the same small customnet
// the serve tests use, so the race-enabled suites stay fast.
func testBuild() (*layers.Network, error) {
	return models.Build("customnet", models.Options{
		InShape: []int{2, 8, 8},
		Classes: 4,
		Width:   0.25,
	})
}

const testInputLen = 2 * 8 * 8

// testConfig returns a manager config over a shared source network (the
// "published checkpoint" sessions pin their weights from).
func testConfig(t *testing.T) Config {
	t.Helper()
	src, err := testBuild()
	if err != nil {
		t.Fatalf("building source net: %v", err)
	}
	return Config{
		Build:  testBuild,
		Source: func() (*layers.Network, uint64) { return src, 1 },
	}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	t.Cleanup(m.Shutdown)
	return m
}

func testStore(t *testing.T, fsys faults.FS, clock faults.Clock) *runstate.SessionStore {
	t.Helper()
	st, err := runstate.OpenSessions(t.TempDir(), fsys, clock)
	if err != nil {
		t.Fatalf("OpenSessions: %v", err)
	}
	return st
}

// genOpts is the deterministic event stream every byte-identity test
// replays: half the windows quiet, busy windows carrying 10 events.
var genOpts = GenOptions{
	Seed:            42,
	WindowSteps:     6,
	EventsPerWindow: 10,
	QuietFrac:       0.5,
}

// feed sends windows [from, to) of the deterministic stream to session id
// and returns one logits slice per window.
func feed(t *testing.T, m *Manager, id string, from, to int) [][]float32 {
	t.Helper()
	var out [][]float32
	for w := from; w < to; w++ {
		rep, serr := m.Window(WindowRequest{
			Session: id,
			Seq:     w,
			Steps:   genOpts.WindowSteps,
			Events:  GenWindow(genOpts, 0, w, testInputLen),
		})
		if serr != nil {
			t.Fatalf("window %d: %v", w, serr)
		}
		if rep.Seq != w {
			t.Fatalf("window %d: reply seq %d", w, rep.Seq)
		}
		out = append(out, rep.Logits)
	}
	return out
}

// logitsEqual compares per-window logits bitwise — the acceptance bar for
// resume and migration is bit-identity, not tolerance.
func logitsEqual(t *testing.T, what string, got, want [][]float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows vs %d", what, len(got), len(want))
	}
	for w := range got {
		if len(got[w]) != len(want[w]) {
			t.Fatalf("%s: window %d has %d logits vs %d", what, w, len(got[w]), len(want[w]))
		}
		for i := range got[w] {
			if math.Float32bits(got[w][i]) != math.Float32bits(want[w][i]) {
				t.Fatalf("%s: window %d logit %d differs bitwise: %v vs %v",
					what, w, i, got[w][i], want[w][i])
			}
		}
	}
}

func open(t *testing.T, m *Manager, id string) OpenReply {
	t.Helper()
	rep, serr := m.Open(OpenRequest{Session: id})
	if serr != nil {
		t.Fatalf("open %s: %v", id, serr)
	}
	return rep
}

// TestStreamKillResumeByteIdentical proves durability: a session killed
// without any goodbye (the manager is simply abandoned, like a SIGKILL'd
// process) resumes from its periodic snapshot on a fresh manager and replays
// the interrupted stream with bitwise-identical per-window predictions.
func TestStreamKillResumeByteIdentical(t *testing.T) {
	const kill, total = 5, 12

	// Uninterrupted reference run.
	ref := newTestManager(t, testConfig(t))
	open(t, ref, "s")
	want := feed(t, ref, "s", 0, total)

	// Run A snapshots every window, dies (abandoned, never Shutdown) after
	// the kill-th window.
	cfg := testConfig(t)
	cfg.Store = testStore(t, nil, nil)
	cfg.SnapshotEvery = 1
	a := newTestManager(t, cfg)
	open(t, a, "s")
	logitsEqual(t, "pre-kill", feed(t, a, "s", 0, kill), want[:kill])

	// Run B shares the store directory and resumes mid-stream.
	cfgB := testConfig(t)
	cfgB.Store = cfg.Store
	b := newTestManager(t, cfgB)
	rep := open(t, b, "s")
	if !rep.Resumed {
		t.Fatalf("open after kill: session came back fresh (membrane state lost)")
	}
	if rep.Window != kill {
		t.Fatalf("resumed at window %d, want %d", rep.Window, kill)
	}
	logitsEqual(t, "post-resume", feed(t, b, "s", kill, total), want[kill:])
}

// TestStreamResumeLagReplay proves the replay contract: when the snapshot
// cadence lags the stream (SnapshotEvery > 1), a resume rewinds the cursor
// to the last durable window and the client's deterministic replay of the
// gap produces the same bits the lost replica already served.
func TestStreamResumeLagReplay(t *testing.T) {
	const total = 12

	ref := newTestManager(t, testConfig(t))
	open(t, ref, "s")
	want := feed(t, ref, "s", 0, total)

	cfg := testConfig(t)
	cfg.Store = testStore(t, nil, nil)
	cfg.SnapshotEvery = 4
	a := newTestManager(t, cfg)
	open(t, a, "s")
	feed(t, a, "s", 0, 6) // snapshots at windows 4; windows 5..6 are lost

	cfgB := testConfig(t)
	cfgB.Store = cfg.Store
	b := newTestManager(t, cfgB)
	rep := open(t, b, "s")
	if !rep.Resumed || rep.Window != 4 {
		t.Fatalf("resume landed at window %d (resumed=%v), want durable cursor 4", rep.Window, rep.Resumed)
	}
	// A stale-seq probe reports the server cursor so the client can resync.
	_, serr := b.Window(WindowRequest{Session: "s", Seq: 6, Steps: genOpts.WindowSteps})
	if serr == nil || serr.Code != CodeBadSeq || serr.Window != 4 {
		t.Fatalf("stale seq: got %v, want CodeBadSeq with window 4", serr)
	}
	logitsEqual(t, "replay", feed(t, b, "s", 4, total), want[4:])
}

// TestStreamExportImportByteIdentical proves migration: a session exported
// from one manager and imported into another continues bitwise-identically,
// and the source refuses further traffic instead of forking membrane state.
func TestStreamExportImportByteIdentical(t *testing.T) {
	const cut, total = 7, 12

	ref := newTestManager(t, testConfig(t))
	open(t, ref, "s")
	want := feed(t, ref, "s", 0, total)

	a := newTestManager(t, testConfig(t))
	open(t, a, "s")
	logitsEqual(t, "pre-migration", feed(t, a, "s", 0, cut), want[:cut])

	raw, serr := a.Export("s")
	if serr != nil {
		t.Fatalf("export: %v", serr)
	}
	// The source must never answer for the exported session again.
	if _, serr := a.Window(WindowRequest{Session: "s", Seq: cut, Steps: 1}); serr == nil || serr.Code != CodeUnknownSession {
		t.Fatalf("window at source after export: got %v, want CodeUnknownSession", serr)
	}
	if _, serr := a.Export("s"); serr == nil {
		t.Fatalf("second export of a migrated session must fail")
	}

	b := newTestManager(t, testConfig(t))
	irep, serr := b.Import(raw)
	if serr != nil {
		t.Fatalf("import: %v", serr)
	}
	if irep.Window != cut {
		t.Fatalf("imported at window %d, want %d", irep.Window, cut)
	}
	logitsEqual(t, "post-migration", feed(t, b, "s", cut, total), want[cut:])

	if a.exported.Load() != 1 || b.imported.Load() != 1 {
		t.Fatalf("migration counters: exported=%d imported=%d", a.exported.Load(), b.imported.Load())
	}
}

// TestStreamImportRejectsMismatchedModel is the state-shape guard: a record
// captured on one architecture must be refused by a replica serving another,
// never silently grafted onto incompatible layers.
func TestStreamImportRejectsMismatchedModel(t *testing.T) {
	a := newTestManager(t, testConfig(t))
	open(t, a, "s")
	feed(t, a, "s", 0, 3)
	raw, serr := a.Export("s")
	if serr != nil {
		t.Fatalf("export: %v", serr)
	}

	wide, err := models.Build("customnet", models.Options{InShape: []int{2, 8, 8}, Classes: 4, Width: 0.5})
	if err != nil {
		t.Fatalf("building wide net: %v", err)
	}
	b := newTestManager(t, Config{
		Build: func() (*layers.Network, error) {
			return models.Build("customnet", models.Options{InShape: []int{2, 8, 8}, Classes: 4, Width: 0.5})
		},
		Source: func() (*layers.Network, uint64) { return wide, 1 },
	})
	if _, serr := b.Import(raw); serr == nil || serr.Code != CodeBadRequest {
		t.Fatalf("import onto mismatched model: got %v, want CodeBadRequest", serr)
	}
	if b.Count() != 0 {
		t.Fatalf("rejected import left %d live sessions", b.Count())
	}
}

// TestStreamSkipLossless proves the default activity gate is exact: with
// threshold 0 only event-free windows take the skip path (StepQuiet, the
// same forward on an all-zero input), and the resulting logits match a
// skip-disabled session bitwise on every window.
func TestStreamSkipLossless(t *testing.T) {
	const total = 12
	disabled := -1

	m := newTestManager(t, testConfig(t))
	if _, serr := m.Open(OpenRequest{Session: "gated"}); serr != nil {
		t.Fatalf("open gated: %v", serr)
	}
	if _, serr := m.Open(OpenRequest{Session: "plain", SkipThreshold: &disabled}); serr != nil {
		t.Fatalf("open plain: %v", serr)
	}

	var gated, plain [][]float32
	var skipped int
	for w := 0; w < total; w++ {
		req := WindowRequest{Seq: w, Steps: genOpts.WindowSteps, Events: GenWindow(genOpts, 0, w, testInputLen)}
		req.Session = "gated"
		g, serr := m.Window(req)
		if serr != nil {
			t.Fatalf("gated window %d: %v", w, serr)
		}
		req.Session = "plain"
		p, serr := m.Window(req)
		if serr != nil {
			t.Fatalf("plain window %d: %v", w, serr)
		}
		if g.Skipped {
			skipped++
			if len(req.Events) != 0 {
				t.Fatalf("window %d skipped despite %d events at threshold 0", w, len(req.Events)/2)
			}
		}
		if p.Skipped {
			t.Fatalf("window %d skipped with skipping disabled", w)
		}
		gated = append(gated, g.Logits)
		plain = append(plain, p.Logits)
	}
	logitsEqual(t, "skip vs full", gated, plain)
	if skipped == 0 {
		t.Fatalf("no windows skipped — quiet fraction %v should produce some", genOpts.QuietFrac)
	}
	if got := m.skipped.Load(); got != int64(skipped) {
		t.Fatalf("skipped counter %d, observed %d skipped replies", got, skipped)
	}
	if m.quiet.Load() == 0 || m.full.Load() == 0 {
		t.Fatalf("step counters: quiet=%d full=%d, want both > 0", m.quiet.Load(), m.full.Load())
	}
}

// TestStreamSnapshotFailureKeepsSessionAlive injects filesystem faults into
// the periodic snapshot: the stream must keep answering (losing only crash
// durability), and the failure must be counted.
func TestStreamSnapshotFailureKeepsSessionAlive(t *testing.T) {
	inj := faults.NewInjector(nil)
	cfg := testConfig(t)
	cfg.Store = testStore(t, inj, nil)
	cfg.SnapshotEvery = 1
	m := newTestManager(t, cfg)
	open(t, m, "s")

	inj.FailCreate(true)
	feed(t, m, "s", 0, 3)
	if m.Count() != 1 {
		t.Fatalf("session died with its snapshot: %d live", m.Count())
	}
	if m.snapFails.Load() != 3 {
		t.Fatalf("snapshot failures %d, want 3", m.snapFails.Load())
	}
	if cfg.Store.Exists("s") {
		t.Fatalf("failed snapshots left a record on disk")
	}

	// Fault clears: the next window's snapshot restores durability.
	inj.FailCreate(false)
	feed(t, m, "s", 3, 4)
	if !cfg.Store.Exists("s") {
		t.Fatalf("snapshot after fault cleared did not persist")
	}
}

// settableClock is a test clock the TTL eviction test advances by hand.
type settableClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *settableClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *settableClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestStreamTTLEvictionSnapshotsFirst proves an idle session is evicted
// after TTL, that eviction snapshots it first, and that a later open
// resumes the evicted state rather than starting fresh.
func TestStreamTTLEvictionSnapshotsFirst(t *testing.T) {
	clk := &settableClock{t: time.Unix(1000, 0)}
	cfg := testConfig(t)
	cfg.Store = testStore(t, nil, clk)
	cfg.TTL = 50 * time.Millisecond
	cfg.SnapshotEvery = -1 // eviction is the only snapshot path
	cfg.Clock = clk
	m := newTestManager(t, cfg)
	open(t, m, "s")
	feed(t, m, "s", 0, 4)

	clk.Advance(time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for m.Count() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle session not evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m.evicted.Load() != 1 {
		t.Fatalf("evicted counter %d, want 1", m.evicted.Load())
	}
	rep := open(t, m, "s")
	if !rep.Resumed || rep.Window != 4 {
		t.Fatalf("post-eviction open: resumed=%v window=%d, want resume at 4", rep.Resumed, rep.Window)
	}
}

// TestStreamEvictionTickRacesWindows lands windows on a session while the
// eviction tick runs. The clock never advances, so nothing is idle; the
// test's assertion is the race detector's: the tick must read a session's
// activity stamp under that session's lock, not the registry's.
func TestStreamEvictionTickRacesWindows(t *testing.T) {
	cfg := testConfig(t)
	cfg.Clock = &settableClock{t: time.Unix(1000, 0)}
	m := newTestManager(t, cfg)
	open(t, m, "s")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.evictIdle()
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)
	feed(t, m, "s", 0, 16)
	if m.Count() != 1 || m.evicted.Load() != 0 {
		t.Fatalf("active session evicted: count=%d evicted=%d", m.Count(), m.evicted.Load())
	}
}

// TestStreamRequireResumeRefusesFresh: a client that has state to lose asks
// for RequireResume; a replica with no record must error loudly instead of
// silently handing back a fresh session.
func TestStreamRequireResumeRefusesFresh(t *testing.T) {
	m := newTestManager(t, testConfig(t))
	_, serr := m.Open(OpenRequest{Session: "ghost", RequireResume: true})
	if serr == nil || serr.Code != CodeUnknownSession {
		t.Fatalf("RequireResume on unknown session: got %v, want CodeUnknownSession", serr)
	}
}

// TestStreamWindowValidation covers the request guards: bad steps, odd
// event arrays, out-of-range events, and unknown sessions.
func TestStreamWindowValidation(t *testing.T) {
	m := newTestManager(t, testConfig(t))
	open(t, m, "s")
	cases := []struct {
		name string
		req  WindowRequest
		code string
	}{
		{"zero steps", WindowRequest{Session: "s", Steps: 0}, CodeBadRequest},
		{"huge steps", WindowRequest{Session: "s", Steps: maxWindowSteps + 1}, CodeBadRequest},
		{"odd events", WindowRequest{Session: "s", Steps: 4, Events: []uint32{1}}, CodeBadRequest},
		{"event t out of range", WindowRequest{Session: "s", Steps: 4, Events: []uint32{4, 0}}, CodeBadRequest},
		{"event idx out of range", WindowRequest{Session: "s", Steps: 4, Events: []uint32{0, testInputLen}}, CodeBadRequest},
		{"unknown session", WindowRequest{Session: "nope", Steps: 4}, CodeUnknownSession},
		{"stale seq", WindowRequest{Session: "s", Seq: 9, Steps: 4}, CodeBadSeq},
	}
	for _, tc := range cases {
		if _, serr := m.Window(tc.req); serr == nil || serr.Code != tc.code {
			t.Errorf("%s: got %v, want code %s", tc.name, serr, tc.code)
		}
	}
}

// TestStreamConcurrentSessions drives many sessions in parallel through one
// manager (race detector coverage for the registry, counters, and shared
// compute pool) and checks each stream stays bitwise equal to a serial
// reference run.
func TestStreamConcurrentSessions(t *testing.T) {
	const sessions, windows = 6, 6

	ref := newTestManager(t, testConfig(t))
	want := make([][][]float32, sessions)
	for i := range want {
		id := fmt.Sprintf("ref-%d", i)
		open(t, ref, id)
		for w := 0; w < windows; w++ {
			rep, serr := ref.Window(WindowRequest{
				Session: id, Seq: w, Steps: genOpts.WindowSteps,
				Events: GenWindow(genOpts, i, w, testInputLen),
			})
			if serr != nil {
				t.Fatalf("ref session %d window %d: %v", i, w, serr)
			}
			want[i] = append(want[i], rep.Logits)
		}
	}

	m := newTestManager(t, testConfig(t))
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	got := make([][][]float32, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("ref-%d", i)
			if _, serr := m.Open(OpenRequest{Session: id}); serr != nil {
				errs <- fmt.Errorf("open %s: %w", id, serr)
				return
			}
			for w := 0; w < windows; w++ {
				rep, serr := m.Window(WindowRequest{
					Session: id, Seq: w, Steps: genOpts.WindowSteps,
					Events: GenWindow(genOpts, i, w, testInputLen),
				})
				if serr != nil {
					errs <- fmt.Errorf("session %d window %d: %w", i, w, serr)
					return
				}
				got[i] = append(got[i], rep.Logits)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range want {
		logitsEqual(t, fmt.Sprintf("session %d", i), got[i], want[i])
	}
}

// TestStreamHandleFrameRoundTrip exercises the frame-protocol dispatch the
// fleet connection uses: open, window, list, close, and the error path.
func TestStreamHandleFrameRoundTrip(t *testing.T) {
	m := newTestManager(t, testConfig(t))

	mustJSON := func(v any) []byte {
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return buf
	}

	typ, payload := m.HandleFrame(TypeOpen, mustJSON(OpenRequest{Session: "s"}))
	if typ != TypeOpened {
		t.Fatalf("open frame answered 0x%02x: %s", typ, payload)
	}
	typ, payload = m.HandleFrame(TypeWindow, mustJSON(WindowRequest{Session: "s", Steps: 4}))
	if typ != TypePred {
		t.Fatalf("window frame answered 0x%02x: %s", typ, payload)
	}
	typ, _ = m.HandleFrame(TypeList, nil)
	if typ != TypeListing {
		t.Fatalf("list frame answered 0x%02x", typ)
	}
	typ, payload = m.HandleFrame(TypeWindow, []byte("not json"))
	if typ != TypeError {
		t.Fatalf("garbage frame answered 0x%02x: %s", typ, payload)
	}
	typ, _ = m.HandleFrame(TypeClose, mustJSON(CloseRequest{Session: "s"}))
	if typ != TypeClosed {
		t.Fatalf("close frame answered 0x%02x", typ)
	}
	if m.Count() != 0 {
		t.Fatalf("close left %d sessions", m.Count())
	}
}
