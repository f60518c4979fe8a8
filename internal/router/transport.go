package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"skipper/internal/frame"
	"sync"
	"time"

	"skipper/internal/serve"
)

// transport moves requests and heartbeats between the router and its
// backends over the framed-TCP protocol serve.Fleet* defines on dist's CRC
// envelope — persistent connections, no HTTP parsing per request. Data-plane
// exchanges (infer, stream migration) multiplex over one muxConn per backend
// under FleetMux correlation envelopes; heartbeats keep a small pool of
// one-at-a-time connections so a probe measures a clean round-trip. Only the
// control plane (checkpoint reload, the /v1/config proxy) speaks HTTP.
type transport struct {
	client  *http.Client  // control plane
	timeout time.Duration // data-plane dial + per-exchange deadline

	mu    sync.Mutex
	pools map[string]*connPool // by fleet addr
	muxes map[string]*muxConn  // by fleet addr
}

func newTransport(client *http.Client, timeout time.Duration) *transport {
	if client == nil {
		client = &http.Client{Timeout: timeout}
	}
	return &transport{
		client:  client,
		timeout: timeout,
		pools:   map[string]*connPool{},
		muxes:   map[string]*muxConn{},
	}
}

// connPool is a tiny free-list of framed connections to one backend.
type connPool struct {
	addr string
	mu   sync.Mutex
	idle []net.Conn
}

func (tr *transport) pool(addr string) *connPool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	p, ok := tr.pools[addr]
	if !ok {
		p = &connPool{addr: addr}
		tr.pools[addr] = p
	}
	return p
}

func (p *connPool) get(deadline time.Time) (net.Conn, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	return (&net.Dialer{Deadline: deadline}).Dial("tcp", p.addr)
}

func (p *connPool) put(c net.Conn) {
	p.mu.Lock()
	if len(p.idle) < 8 {
		p.idle = append(p.idle, c)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	c.Close()
}

// closeAll drops every pooled and multiplexed connection (shutdown).
func (tr *transport) closeAll() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, p := range tr.pools {
		p.mu.Lock()
		for _, c := range p.idle {
			c.Close()
		}
		p.idle = nil
		p.mu.Unlock()
	}
	for _, mc := range tr.muxes {
		mc.close()
	}
}

// ping probes one backend: a FleetPing round-trip on a pooled connection,
// dial included, inside timeout. The pong carries the drain flag, the queue
// numbers and the model generation. Any error closes the connection — the
// protocol has no re-synchronization — and counts as a missed heartbeat.
func (tr *transport) ping(b *backend, timeout time.Duration) (serve.FleetStatus, error) {
	var st serve.FleetStatus
	p := tr.pool(b.spec.FleetAddr)
	deadline := time.Now().Add(timeout)
	conn, err := p.get(deadline)
	if err != nil {
		return st, err
	}
	conn.SetDeadline(deadline)
	if err := frame.Write(conn, serve.FleetPing, nil); err != nil {
		conn.Close()
		return st, err
	}
	typ, resp, err := frame.Read(conn)
	if err != nil {
		conn.Close()
		return st, err
	}
	if typ != serve.FleetPong {
		conn.Close()
		return st, fmt.Errorf("router: fleet frame type %d, want %d", typ, serve.FleetPong)
	}
	conn.SetDeadline(time.Time{})
	p.put(conn)
	if err := json.Unmarshal(resp, &st); err != nil {
		return st, fmt.Errorf("router: decoding pong: %w", err)
	}
	return st, nil
}

// infer forwards one serialized request body to a backend over its
// multiplexed fleet connection. An error means the backend is unreachable:
// the caller marks it suspect and fails over to the ring successor.
func (tr *transport) infer(b *backend, body []byte) (serve.FleetResponse, error) {
	var out serve.FleetResponse
	rtyp, resp, err := tr.mexchange(b.spec.FleetAddr, serve.FleetInfer, body)
	if err != nil {
		return out, err
	}
	if rtyp != serve.FleetResult {
		return out, fmt.Errorf("router: fleet frame type %d, want %d", rtyp, serve.FleetResult)
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return out, fmt.Errorf("router: decoding fleet result: %w", err)
	}
	return out, nil
}

// reload swaps a backend to the checkpoint at path over the HTTP control
// plane (the canary registry's promote/rollback mechanism).
func (tr *transport) reload(b *backend, path string) error {
	body, _ := json.Marshal(struct {
		Path string `json:"path"`
	}{Path: path})
	resp, err := tr.client.Post(b.spec.URL+"/v1/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router: reload of %s to %q failed: %d %s", b.spec.URL, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return nil
}
