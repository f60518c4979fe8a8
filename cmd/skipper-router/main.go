// Command skipper-router fronts a fleet of skipper-serve replicas: it
// consistent-hashes session keys onto health-checked backends, sheds load in
// admission tiers before the replicas saturate, tunes the early-exit margin
// per request class against its latency budget, and canaries new checkpoints
// on a fraction of sessions before promoting them fleet-wide.
//
// Endpoints: POST /v1/infer (data plane), GET /v1/fleet, POST /v1/canary,
// POST /v1/promote, POST /v1/rollback (control plane), /metrics, /healthz,
// /readyz.
//
// Backends are listed as URL=FLEETADDR pairs: the replica's HTTP base (its
// identity and control plane) and its skipper-serve -fleet-addr listener,
// which carries every heartbeat and request over the framed-TCP transport:
//
//	skipper-router -addr :8000 \
//	  -backends http://127.0.0.1:8081=127.0.0.1:9081,http://127.0.0.1:8082=127.0.0.1:9082
//
// Routers run replicated: give each one a -peer-addr (its peer-channel
// listener, also its identity) and the others' peer addresses in -peers.
// The tier gossips backend membership, canary state, and admission config,
// so every router derives the identical hash ring, and replica death becomes
// a quorum decision instead of one router's opinion:
//
//	skipper-router -addr :8000 -peer-addr 127.0.0.1:7000 \
//	  -peers 127.0.0.1:7001,127.0.0.1:7002 -backends ...
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"skipper/internal/cli"
	"skipper/internal/router"
	"skipper/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", ":8000", "listen address")
		backends  = flag.String("backends", "", "comma-separated replica list: URL=FLEETADDR")
		vnodes    = flag.Int("vnodes", 64, "virtual nodes per backend on the hash ring")
		heartbeat = flag.Duration("heartbeat", 500*time.Millisecond, "health-probe interval")
		deadAfter = flag.Int("dead-after", 3, "consecutive missed heartbeats before a backend leaves the ring")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-backend exchange timeout")
		failover  = flag.Int("failover", 2, "ring successors to try after the primary fails")
		defClass  = flag.String("default-class", "standard", "admission class for unlabeled requests")
		classJSON = flag.String("classes", "", "admission classes as JSON array (empty = built-in interactive/standard/bulk)")
		canaryMin = flag.Int("canary-min-requests", 50, "canary cohort size before auto-promotion is considered")
		peerAddr  = flag.String("peer-addr", "", "peer-channel listen address (router state sync + replica drain announcements); also this router's identity")
		peerList  = flag.String("peers", "", "comma-separated peer-channel addresses of the other routers in the tier")
		syncIvl   = flag.Duration("sync-interval", 0, "gossip period with each peer (0 = heartbeat interval)")
		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON profile on shutdown to this file")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and /debug/spans on this address")
	)
	flag.Parse()

	specs, err := parseBackends(*backends)
	if err != nil {
		cli.Fatal(err)
	}
	var classes []router.ClassConfig
	if *classJSON != "" {
		if err := json.Unmarshal([]byte(*classJSON), &classes); err != nil {
			cli.Fatal(fmt.Errorf("parsing -classes: %w", err))
		}
	}

	var tracer *trace.Tracer
	if *tracePath != "" || *debugAddr != "" {
		tracer = trace.New(0)
	}
	if dbg, err := cli.StartDebug(*debugAddr, tracer); err != nil {
		cli.Fatal(err)
	} else if dbg != "" {
		fmt.Printf("debug server on http://%s/debug/pprof/ and /debug/spans\n", dbg)
	}

	var peerLN net.Listener
	var peers []string
	if *peerAddr != "" {
		peerLN, err = net.Listen("tcp", *peerAddr)
		if err != nil {
			cli.Fatal(fmt.Errorf("peer listener: %w", err))
		}
	}
	for _, p := range strings.Split(*peerList, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}

	rt, err := router.New(router.Config{
		Backends:          specs,
		VNodes:            *vnodes,
		HeartbeatInterval: *heartbeat,
		DeadAfter:         *deadAfter,
		RequestTimeout:    *timeout,
		FailoverAttempts:  *failover,
		Classes:           classes,
		DefaultClass:      *defClass,
		CanaryMinRequests: *canaryMin,
		Tracer:            tracer,
		PeerListener:      peerLN,
		PeerID:            *peerAddr,
		Peers:             peers,
		SyncInterval:      *syncIvl,
	})
	if err != nil {
		cli.Fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("routing %d backends on %s  heartbeat=%s dead-after=%d failover=%d\n",
		len(specs), *addr, *heartbeat, *deadAfter, *failover)
	if peerLN != nil {
		fmt.Printf("peer channel on %s  peers=%d quorum=%d\n", peerLN.Addr(), len(peers), (1+len(peers))/2+1)
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		cli.Fatal(err)
	case sig := <-sigc:
		fmt.Printf("%s received, shutting down...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		shutErr := hs.Shutdown(ctx)
		cancel()
		rt.Close()
		if shutErr != nil {
			cli.Fatal(shutErr)
		}
		if *tracePath != "" {
			if err := cli.WriteTrace(*tracePath, tracer); err != nil {
				cli.Fatal(err)
			}
			fmt.Printf("trace written to %s\n", *tracePath)
		}
		fmt.Println("router stopped")
	}
}

// parseBackends parses "URL=FLEETADDR,..." into specs; router.New rejects one
// with no fleet address.
func parseBackends(s string) ([]router.BackendSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-backends is required (URL=FLEETADDR, comma-separated)")
	}
	var specs []router.BackendSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		spec := router.BackendSpec{URL: part}
		if i := strings.IndexByte(part, '='); i >= 0 {
			spec.URL = part[:i]
			spec.FleetAddr = part[i+1:]
		}
		specs = append(specs, spec)
	}
	return specs, nil
}
