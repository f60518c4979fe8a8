package stream

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"skipper/internal/tensor"
)

// streamNS namespaces the generator's DeriveSeed streams.
const streamNS uint64 = 0x73747265 // "stre"

// Placement is the router's answer to /v1/stream/place: where a session's
// windows should go.
type Placement struct {
	Session   string `json:"session"`
	URL       string `json:"url"`
	FleetAddr string `json:"fleet_addr"`
}

// GenOptions parameterises the streaming load generator.
type GenOptions struct {
	// Routers are router base URLs consulted for session placement. The
	// list is walked health-aware: the last router that answered stays
	// first, failing routers are demoted behind it.
	Routers []string
	// Addr pins every session to one replica fleet address directly,
	// bypassing router placement (single-replica runs, benches).
	Addr string

	Sessions int
	// Windows per session.
	Windows int
	// WindowSteps is the timestep count per window.
	WindowSteps int
	// QuietFrac is the fraction of windows generated with zero events.
	QuietFrac float64
	// EventsPerWindow is the event count of a busy window.
	EventsPerWindow int
	// InputLen is the model's flat input volume; zero takes it from the
	// session's OpenReply.
	InputLen int
	Seed     uint64
	// SessionPrefix names sessions "<prefix>-<i>".
	SessionPrefix string
	Timeout       time.Duration
	// Reconnects bounds how many times one session survives a transport
	// failure by re-placing and resuming. Zero means 8.
	Reconnects int
	// SkipThreshold passes a per-session gate override (nil = server
	// default).
	SkipThreshold *int
	// Interval paces each session: the gap between acknowledged windows.
	// Zero streams as fast as the server answers; the smoke scripts set
	// this so a replica kill reliably lands mid-stream.
	Interval time.Duration
}

// GenReport aggregates a streaming run.
type GenReport struct {
	Sessions int `json:"sessions"`
	Windows  int `json:"windows_per_session"`

	WindowsOK      int64 `json:"windows_ok"`
	WindowsSkipped int64 `json:"windows_skipped"`
	// Replays counts windows re-sent after a reconnect rewound the cursor
	// to the server's last durable state.
	Replays    int64 `json:"replays"`
	Reconnects int64 `json:"reconnects"`
	// Migrations counts reconnects that resumed on a different replica.
	Migrations int64 `json:"migrations"`
	// Resets counts sessions that lost membrane state (a resume came back
	// fresh) — the smoke scripts gate on zero.
	Resets   int64 `json:"resets"`
	Failures int64 `json:"failures"`

	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	// MaxPauseMS is the longest window latency observed — during a
	// migration this is the client-visible pause (reconnect + re-place +
	// resume + replay of the interrupted window).
	MaxPauseMS float64 `json:"max_pause_ms"`
}

func (o GenOptions) withDefaults() GenOptions {
	if o.Sessions <= 0 {
		o.Sessions = 1
	}
	if o.Windows <= 0 {
		o.Windows = 10
	}
	if o.WindowSteps <= 0 {
		o.WindowSteps = 8
	}
	if o.EventsPerWindow <= 0 {
		o.EventsPerWindow = 16
	}
	if o.SessionPrefix == "" {
		o.SessionPrefix = "gen"
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Reconnects <= 0 {
		o.Reconnects = 8
	}
	return o
}

// GenWindow deterministically generates window w of session idx: quiet (no
// events) with probability QuietFrac, else EventsPerWindow events uniform
// over (t, idx). Determinism is what lets a client replay any window after
// a reconnect and what lets the bench replay an identical stream against a
// second server for bitwise comparison.
func GenWindow(o GenOptions, sessIdx, w, inputLen int) []uint32 {
	rng := tensor.NewRNG(tensor.DeriveSeed(o.Seed, streamNS, uint64(sessIdx), uint64(w)))
	if rng.Float64() < o.QuietFrac {
		return nil
	}
	ev := make([]uint32, 0, 2*o.EventsPerWindow)
	for i := 0; i < o.EventsPerWindow; i++ {
		ev = append(ev, uint32(rng.Intn(o.WindowSteps)), uint32(rng.Intn(inputLen)))
	}
	return ev
}

// routerPool walks a router list health-aware: pick returns the remembered
// last-healthy router first; demote pushes a failing router behind the
// healthy cursor for a cooldown.
type routerPool struct {
	urls []string
	mu   sync.Mutex
	cur  int
	bad  []time.Time
}

func newRouterPool(urls []string) *routerPool {
	return &routerPool{urls: urls, bad: make([]time.Time, len(urls))}
}

const routerCooldown = 2 * time.Second

// order returns candidate indices: the last-healthy cursor first, skipping
// routers still in demotion cooldown (they come last, as a final resort).
func (p *routerPool) order() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	var healthy, cooling []int
	for i := range p.urls {
		j := (p.cur + i) % len(p.urls)
		if now.Before(p.bad[j]) {
			cooling = append(cooling, j)
		} else {
			healthy = append(healthy, j)
		}
	}
	return append(healthy, cooling...)
}

func (p *routerPool) demote(i int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bad[i] = time.Now().Add(routerCooldown)
	if p.cur == i {
		p.cur = (i + 1) % len(p.urls)
	}
}

func (p *routerPool) promote(i int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bad[i] = time.Time{}
	p.cur = i
}

// place asks the routers where a session should stream to.
func (p *routerPool) place(client *http.Client, session string) (Placement, error) {
	var lastErr error
	for _, i := range p.order() {
		resp, err := client.Get(p.urls[i] + "/v1/stream/place?session=" + session)
		if err != nil {
			p.demote(i)
			lastErr = err
			continue
		}
		var pl Placement
		err = json.NewDecoder(resp.Body).Decode(&pl)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || pl.FleetAddr == "" {
			if resp.StatusCode >= 500 || err != nil {
				p.demote(i)
			}
			lastErr = fmt.Errorf("stream: place via %s: status %d err %v", p.urls[i], resp.StatusCode, err)
			continue
		}
		p.promote(i)
		return pl, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("stream: no routers configured")
	}
	return Placement{}, lastErr
}

// RunStreamGen drives Sessions concurrent streaming sessions, each sending
// Windows deterministic event windows, surviving replica failures by
// re-placing through the routers and resuming (RequireResume — a session
// that cannot resume counts as a Reset, never silently restarts).
func RunStreamGen(opts GenOptions) (GenReport, error) {
	o := opts.withDefaults()
	if len(o.Routers) == 0 && o.Addr == "" {
		return GenReport{}, fmt.Errorf("stream: GenOptions needs Routers or Addr")
	}
	pool := newRouterPool(o.Routers)
	httpc := &http.Client{Timeout: o.Timeout}
	rep := GenReport{Sessions: o.Sessions, Windows: o.Windows}

	var mu sync.Mutex
	var lats []float64
	var wg sync.WaitGroup
	var firstErr error

	for si := 0; si < o.Sessions; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			id := fmt.Sprintf("%s-%d", o.SessionPrefix, si)
			err := runSession(o, pool, httpc, id, si, &rep, &mu, &lats)
			if err != nil {
				mu.Lock()
				rep.Failures++
				if firstErr == nil {
					firstErr = fmt.Errorf("session %s: %w", id, err)
				}
				mu.Unlock()
			}
		}(si)
	}
	wg.Wait()

	if len(lats) > 0 {
		sort.Float64s(lats)
		rep.P50MS = pct(lats, 50)
		rep.P99MS = pct(lats, 99)
		rep.MaxPauseMS = lats[len(lats)-1]
	}
	return rep, firstErr
}

// connect dials a session's current placement and opens it.
func connect(o GenOptions, pool *routerPool, httpc *http.Client, id string, requireResume bool) (*Client, OpenReply, string, error) {
	addr := o.Addr
	if addr == "" {
		pl, err := pool.place(httpc, id)
		if err != nil {
			return nil, OpenReply{}, "", err
		}
		addr = pl.FleetAddr
	}
	c, err := Dial(addr, o.Timeout)
	if err != nil {
		return nil, OpenReply{}, addr, err
	}
	rep, err := c.Open(OpenRequest{
		Session:       id,
		Seed:          tensor.DeriveSeed(o.Seed, streamNS, uint64(len(id))),
		SkipThreshold: o.SkipThreshold,
		RequireResume: requireResume,
	})
	if err != nil {
		c.Close()
		return nil, OpenReply{}, addr, err
	}
	return c, rep, addr, nil
}

func runSession(o GenOptions, pool *routerPool, httpc *http.Client, id string, si int, rep *GenReport, mu *sync.Mutex, lats *[]float64) error {
	c, open, addr, err := connect(o, pool, httpc, id, false)
	if err != nil {
		return err
	}
	defer func() {
		if c != nil {
			c.CloseSession(id, false)
			c.Close()
		}
	}()
	inputLen := o.InputLen
	if inputLen == 0 {
		inputLen = open.InputLen
	}
	if inputLen == 0 {
		return fmt.Errorf("input length unknown (server reported 0)")
	}

	next := open.Window // fresh sessions start at 0
	everAcked := false
	reconnects := 0
	for next < o.Windows {
		seq := next
		req := WindowRequest{Session: id, Seq: seq, Steps: o.WindowSteps, Events: GenWindow(o, si, seq, inputLen)}
		start := time.Now()
		wrep, err := c.Window(req)
		if err != nil {
			if se, ok := err.(*Error); ok && se.Code == CodeBadSeq {
				// The server is behind (resumed from an older snapshot) or
				// ahead (our reconnect re-sent an acked window): resync to
				// its cursor and replay.
				mu.Lock()
				rep.Replays++
				mu.Unlock()
				next = se.Window
				continue
			}
			// Transport failure or a moved/lost session: re-place and
			// resume. RequireResume makes a state loss loud: a replica
			// that would answer with a fresh session errors instead.
			reconnects++
			if reconnects > o.Reconnects {
				return fmt.Errorf("window %d: %w (after %d reconnects)", seq, err, reconnects-1)
			}
			c.Close()
			c = nil
			var rerr error
			var ropen OpenReply
			var raddr string
			for attempt := 0; attempt < 40; attempt++ {
				time.Sleep(time.Duration(25+attempt*25) * time.Millisecond)
				c, ropen, raddr, rerr = connect(o, pool, httpc, id, everAcked)
				if rerr == nil {
					break
				}
			}
			if rerr != nil {
				return fmt.Errorf("window %d: reconnect failed: %w", seq, rerr)
			}
			mu.Lock()
			rep.Reconnects++
			if raddr != addr {
				rep.Migrations++
			}
			if everAcked && !ropen.Resumed {
				rep.Resets++
			}
			mu.Unlock()
			addr = raddr
			next = ropen.Window
			continue
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		mu.Lock()
		rep.WindowsOK++
		if wrep.Skipped {
			rep.WindowsSkipped++
		}
		*lats = append(*lats, ms)
		mu.Unlock()
		everAcked = true
		next = seq + 1
		if o.Interval > 0 && next < o.Windows {
			time.Sleep(o.Interval)
		}
	}
	return nil
}

// pct reads a percentile from an ascending-sorted slice.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)-1))
	return sorted[i]
}
