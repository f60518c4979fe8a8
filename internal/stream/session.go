package stream

import (
	"sync"
	"time"

	"skipper/internal/core"
	"skipper/internal/layers"
	"skipper/internal/runstate"
	"skipper/internal/tensor"
)

// maxWindowSteps bounds one window's timestep count; a streaming client
// wanting a longer horizon sends more windows.
const maxWindowSteps = 1024

// Session is one live streaming-inference session: a private network whose
// weights were pinned at open time (so a serve-side hot reload can never
// rewrite membrane semantics mid-stream), the rolling membrane state, and
// the window cursor. All window processing is serialised by mu.
type Session struct {
	ID string

	mu     sync.Mutex
	net    *layers.Network
	stream *core.StreamState
	seed   uint64
	// version is the checkpoint generation the weights were pinned at.
	version       uint64
	skipThreshold int
	inVolume      int
	classes       int

	// window is the next expected window sequence number.
	window         int
	windowsSkipped int64
	windowsTotal   int64

	lastActive time.Time
	// sealed marks a session exported away: the state left with the
	// record, so further windows must go to the importing replica.
	sealed bool
}

// newSession builds a session with a private replica of the architecture
// and copies the published weights into it (same builder ⇒ same parameter
// order and shapes; see the scratch-ownership note in serve/model.go for
// why the network must be private).
func newSession(cfg Config, id string, seed uint64, threshold int) (*Session, error) {
	net, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	net.SetPool(cfg.Pool)
	src, ver := cfg.Source()
	dst, srcP := net.Params(), src.Params()
	for i := range dst {
		copy(dst[i].W.Data, srcP[i].W.Data)
	}
	return &Session{
		ID:            id,
		net:           net,
		stream:        core.NewStreamState(net, 1),
		seed:          seed,
		version:       ver,
		skipThreshold: threshold,
		inVolume:      tensor.Volume(net.InShape),
		classes:       net.OutShape()[0],
	}, nil
}

// openReply renders the session's resume coordinates. Callers hold s.mu or
// have exclusive access.
func (s *Session) openReply(resumed bool) OpenReply {
	return OpenReply{
		Session:       s.ID,
		Resumed:       resumed,
		Window:        s.window,
		Steps:         s.stream.Steps(),
		Seed:          s.seed,
		InputLen:      s.inVolume,
		Classes:       s.classes,
		SkipThreshold: s.skipThreshold,
		ModelVersion:  s.version,
	}
}

// runWindow advances the session through one event window. The caller holds
// s.mu.
func (s *Session) runWindow(req WindowRequest) (WindowReply, *Error) {
	if s.sealed {
		return WindowReply{}, errf(CodeMoved, "session %s was exported to another replica", s.ID)
	}
	if req.Steps <= 0 || req.Steps > maxWindowSteps {
		return WindowReply{}, errf(CodeBadRequest, "window steps %d out of range [1,%d]", req.Steps, maxWindowSteps)
	}
	if len(req.Events)%2 != 0 {
		return WindowReply{}, errf(CodeBadRequest, "events must be (t, idx) pairs, got %d entries", len(req.Events))
	}
	if req.Seq != s.window {
		e := errf(CodeBadSeq, "window seq %d, session cursor %d", req.Seq, s.window)
		e.Window = s.window
		return WindowReply{}, e
	}
	for i := 0; i < len(req.Events); i += 2 {
		if int(req.Events[i]) >= req.Steps {
			return WindowReply{}, errf(CodeBadRequest, "event t %d outside window of %d steps", req.Events[i], req.Steps)
		}
		if int(req.Events[i+1]) >= s.inVolume {
			return WindowReply{}, errf(CodeBadRequest, "event index %d outside input volume %d", req.Events[i+1], s.inVolume)
		}
	}

	// SAM-style activity gate, applied online: a window whose event count
	// is at or below the threshold advances as an empty window. At the
	// default threshold 0 only truly empty windows skip, so no event is
	// ever dropped and the gate is lossless; positive thresholds drop
	// sub-threshold windows' events (the paper's lossy skip, opt-in).
	skipped := s.skipThreshold >= 0 && len(req.Events)/2 <= s.skipThreshold
	if skipped {
		for t := 0; t < req.Steps; t++ {
			s.stream.StepQuiet()
		}
	} else {
		x := tensor.New(append([]int{1}, s.net.InShape...)...)
		for t := 0; t < req.Steps; t++ {
			x.Zero()
			any := false
			for i := 0; i < len(req.Events); i += 2 {
				if int(req.Events[i]) == t {
					x.Data[req.Events[i+1]] += 1
					any = true
				}
			}
			if any {
				s.stream.StepInput(x)
			} else {
				// An event-free timestep inside a busy window counts as a
				// quiet step too.
				s.stream.StepQuiet()
			}
		}
	}

	s.window++
	s.windowsTotal++
	if skipped {
		s.windowsSkipped++
	}
	logits := s.stream.Logits()
	out := make([]float32, logits.Len())
	copy(out, logits.Data)
	return WindowReply{
		Session: s.ID,
		Seq:     req.Seq,
		Pred:    argmax(out),
		Logits:  out,
		Skipped: skipped,
		Steps:   s.stream.Steps(),
	}, nil
}

// record captures the session as a durable/portable state record. The
// caller holds s.mu.
func (s *Session) record() (*runstate.SessionRecord, error) {
	return runstate.NewSessionRecord(runstate.SessionMeta{
		ID:             s.ID,
		Window:         s.window,
		Steps:          s.stream.Steps(),
		Batch:          1,
		Seed:           s.seed,
		SkipThreshold:  s.skipThreshold,
		ModelVersion:   s.version,
		WindowsSkipped: s.windowsSkipped,
		WindowsTotal:   s.windowsTotal,
	}, s.stream.Capture())
}

// restore installs a state record into a freshly built session, validating
// every tensor against the live architecture's layer shapes — a mismatched
// checkpoint is refused, never grafted onto the stream.
func (s *Session) restore(r *runstate.SessionRecord) *Error {
	states, err := r.States()
	if err != nil {
		return errf(CodeInternal, "decoding session state: %v", err)
	}
	if err := s.stream.Restore(states, r.Meta.Steps); err != nil {
		return errf(CodeBadRequest, "session state does not fit the serving model: %v", err)
	}
	s.window = r.Meta.Window
	s.seed = r.Meta.Seed
	s.skipThreshold = r.Meta.SkipThreshold
	s.windowsSkipped = r.Meta.WindowsSkipped
	s.windowsTotal = r.Meta.WindowsTotal
	return nil
}

func argmax(xs []float32) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
