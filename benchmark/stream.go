package main

import (
	"fmt"
	"sync"
	"time"

	"skipper"
	"skipper/internal/stream"
)

// Window kinds, by what the server has to do for them.
const (
	kindQuiet    = iota // no events: the leak-only StepQuiet path
	kindFull            // events: the full forward
	kindSnapshot        // the window that also writes a durable snapshot
	numKinds
)

// streamSession is one sensor: a framed connection, its session id and the
// next window it owes.
type streamSession struct {
	client *stream.Client
	id     string
	index  int
	seq    int
}

// streamRig is the streaming segment: one replica with a durable session
// directory and one session per core on its framed listener.
type streamRig struct {
	replica  *replica
	gen      stream.GenOptions
	inputLen int
	sessions []*streamSession
	keep     int         // replies of session 0 to keep
	kept     [][]float32 // for the lossless replay

	mu      sync.Mutex
	sent    int // windows answered, warm-up included
	skipped int // those that took the leak-only path
}

// warmWindows is how many windows each session sends during set-up: enough
// for the snapshot path to have run a few times before anything is timed.
const warmWindows = 4 * snapshotEach

// newStreamRig starts the replica, opens the sessions, each on its own
// connection, and sends the warm-up windows of each; all of it is set-up time.
func newStreamRig(rt *skipper.Runtime, seed int64, sessions int, dir string, keep int) (*streamRig, error) {
	r, err := startReplica(lenet, rt, dir)
	if err != nil {
		return nil, err
	}
	s := &streamRig{
		replica: r,
		keep:    keep,
		gen: stream.GenOptions{
			Seed:            uint64(seed),
			WindowSteps:     windowSteps,
			QuietFrac:       streamQuiet,
			EventsPerWindow: streamEvents,
		},
	}
	for i := 0; i < sessions; i++ {
		if err := s.open(i); err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

// open dials session i at window 0 and sends its warm-up windows.
func (s *streamRig) open(i int) error {
	c, err := stream.Dial(s.replica.addr, 5*time.Second)
	if err != nil {
		return err
	}
	ss := &streamSession{client: c, id: fmt.Sprintf("bench-%d", i), index: i}
	s.sessions = append(s.sessions, ss)
	open, err := c.Open(stream.OpenRequest{Session: ss.id, Seed: s.gen.Seed})
	if err != nil {
		return fmt.Errorf("open %s: %w", ss.id, err)
	}
	if open.Resumed || open.Window != 0 || open.Classes != lenet.Classes {
		return fmt.Errorf("open %s: resumed=%v window=%d classes=%d", ss.id, open.Resumed, open.Window, open.Classes)
	}
	s.inputLen = open.InputLen
	for k := 0; k < warmWindows; k++ {
		if _, err := s.window(ss); err != nil {
			return fmt.Errorf("warm-up window %d of %s: %w", k, ss.id, err)
		}
	}
	return nil
}

func (s *streamRig) stop() {
	for _, ss := range s.sessions {
		ss.client.Close()
	}
	s.replica.stop()
}

// window sends the session's next window and checks the reply. Any error —
// a reset, a bad_seq replay, a transport failure — is a failed window.
func (s *streamRig) window(ss *streamSession) (kind int, err error) {
	events := stream.GenWindow(s.gen, ss.index, ss.seq, s.inputLen)
	rep, err := ss.client.Window(stream.WindowRequest{Session: ss.id, Seq: ss.seq, Steps: windowSteps, Events: events})
	if err != nil {
		return 0, err
	}
	if rep.Seq != ss.seq || len(rep.Logits) != lenet.Classes {
		return 0, fmt.Errorf("window %d of %s: reply seq %d with %d logits", ss.seq, ss.id, rep.Seq, len(rep.Logits))
	}
	if rep.Skipped != (len(events) == 0) {
		return 0, fmt.Errorf("window %d of %s: skipped=%v with %d events", ss.seq, ss.id, rep.Skipped, len(events)/2)
	}
	if ss.index == 0 && len(s.kept) < s.keep && len(s.kept) == ss.seq {
		s.kept = append(s.kept, rep.Logits)
	}
	kind = kindFull
	s.mu.Lock()
	s.sent++
	if rep.Skipped {
		kind = kindQuiet
		s.skipped++
	}
	s.mu.Unlock()
	if (ss.seq+1)%snapshotEach == 0 {
		kind = kindSnapshot
	}
	ss.seq++
	return kind, nil
}

// streamResult is what the streaming segment measured, block by block.
type streamResult struct {
	P50, P99   []float64 // per paced block: percentiles of its latencies, each from its due instant
	LatencyMS  []float64 // every paced window that succeeded
	Kinds      []int     // window kind of each of them
	LatenessMS []float64 // generator lateness of every paced window
	Windows    int       // paced windows attempted
	Failed     int       // paced windows failed
	FirstErr   error
	Rates      []float64 // per closed block: completions ÷ wall
	ClosedOK   int
	ClosedBad  int

	MigrateMS  float64 // export → import → resume of one session
	Replayed   int
	ReplayDiff int
}

var kindSpan = [numKinds]string{"stream.quiet_window", "stream.full_window", "stream.snapshot_window"}

// timedWindow sends the session's next window inside a span named after the
// kind of window it turned out to be.
func (s *streamRig) timedWindow(ss *streamSession, rec *recorder) (int, error) {
	t0 := time.Now()
	op := int64(ss.index)<<32 | int64(ss.seq)
	kind, err := s.window(ss)
	rec.add(kindSpan[kind], op, -1, t0, time.Since(t0))
	return kind, err
}

// block is one stream block: every session is paced at one window per
// windowPace for perSession windows, a window's latency counting from its due
// instant; then every session goes back to back for closed.
func (s *streamRig) block(res *streamResult, perSession int, closed time.Duration, rec *recorder) {
	due := pacedSchedule(windowPace, perSession)
	var wg sync.WaitGroup
	samples := make([][]opSample, len(s.sessions))
	kinds := make([][]int, len(s.sessions))
	start := time.Now()
	for i, ss := range s.sessions {
		wg.Add(1)
		go func(i int, ss *streamSession) {
			defer wg.Done()
			kinds[i] = make([]int, len(due))
			samples[i] = runOpenLoop(start, due, 1, func(_, k int) error {
				kind, err := s.timedWindow(ss, rec)
				kinds[i][k] = kind
				return err
			})
		}(i, ss)
	}
	wg.Wait()
	var block []float64
	for i := range samples {
		st := summarise(samples[i])
		res.Windows += len(samples[i])
		res.Failed += st.Failed
		if res.FirstErr == nil {
			res.FirstErr = st.FirstErr
		}
		block = append(block, st.LatencyMS...)
		res.LatenessMS = append(res.LatenessMS, st.LatenessMS...)
		for k, sample := range samples[i] {
			if sample.Err == nil {
				res.Kinds = append(res.Kinds, kinds[i][k])
			}
		}
	}
	res.LatencyMS = append(res.LatencyMS, block...)
	if asc := sorted(block); len(asc) > 0 {
		res.P50, res.P99 = append(res.P50, percentile(asc, 50)), append(res.P99, percentile(asc, 99))
	}

	ok, bad, wall := runClosedLoop(closed, len(s.sessions), func(w, _ int) error {
		_, err := s.timedWindow(s.sessions[w], rec)
		return err
	})
	res.ClosedOK, res.ClosedBad = res.ClosedOK+ok, res.ClosedBad+bad
	res.Rates = append(res.Rates, float64(ok)/wall.Seconds())
}

// finish moves one session out of the replica and back in, then replays the
// start of session 0 with skipping disabled.
func (s *streamRig) finish(res *streamResult) error {
	if err := s.migrate(res); err != nil {
		return err
	}
	return s.replay(res)
}

// migrate exports the last session, imports it back into the replica and
// resumes it; the session must come back at the window it left.
func (s *streamRig) migrate(res *streamResult) error {
	ss := s.sessions[len(s.sessions)-1]
	t0 := time.Now()
	raw, err := ss.client.Export(ss.id)
	if err != nil {
		return fmt.Errorf("export %s: %w", ss.id, err)
	}
	if _, err := ss.client.Import(raw); err != nil {
		return fmt.Errorf("import %s: %w", ss.id, err)
	}
	open, err := ss.client.Open(stream.OpenRequest{Session: ss.id, RequireResume: true})
	if err != nil {
		return fmt.Errorf("resume %s: %w", ss.id, err)
	}
	res.MigrateMS = ms(time.Since(t0).Seconds())
	if !open.Resumed || open.Window != ss.seq {
		return fmt.Errorf("resume %s landed at window %d (resumed=%v), want %d", ss.id, open.Window, open.Resumed, ss.seq)
	}
	_, err = s.window(ss)
	return err
}

// replay feeds the first windows of session 0 to a fresh session with
// skipping disabled; every logit must equal the skipping session's bit for
// bit, or the leak-only path has diverged from the real kernels.
func (s *streamRig) replay(res *streamResult) error {
	c, err := stream.Dial(s.replica.addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	off := -1
	if _, err := c.Open(stream.OpenRequest{Session: "replay", Seed: s.gen.Seed, SkipThreshold: &off}); err != nil {
		return fmt.Errorf("open replay session: %w", err)
	}
	for w, logits := range s.kept {
		rep, err := c.Window(stream.WindowRequest{
			Session: "replay", Seq: w, Steps: windowSteps,
			Events: stream.GenWindow(s.gen, 0, w, s.inputLen),
		})
		if err != nil {
			return fmt.Errorf("replay window %d: %w", w, err)
		}
		res.Replayed++
		if rep.Skipped || !sameBits(rep.Logits, logits) {
			res.ReplayDiff++
		}
	}
	_, err = c.CloseSession("replay", false)
	return err
}

// checkStreaming applies the streaming correctness rules.
func checkStreaming(res *streamResult, skipped int) []string {
	var bad []string
	if res.Failed > 0 || res.ClosedBad > 0 {
		bad = append(bad, fmt.Sprintf("%d paced and %d unpaced windows failed (first: %v)", res.Failed, res.ClosedBad, res.FirstErr))
	}
	if skipped == 0 {
		bad = append(bad, "no window took the leak-only path")
	}
	if res.Replayed == 0 || res.ReplayDiff > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d windows replayed with skipping disabled differ", res.ReplayDiff, res.Replayed))
	}
	return bad
}
