// Command skipper-serve runs the batched SNN inference server: it builds the
// chosen topology, optionally loads trained weights from a serialize
// checkpoint, and answers JSON classification requests with dynamic
// micro-batching and spike-activity early exit.
//
// Endpoints: POST /v1/infer, POST /v1/reload, GET /v1/config, /metrics,
// /healthz, /readyz. SIGHUP re-reads the current checkpoint; SIGINT/SIGTERM
// drain in-flight requests before exiting.
//
// Examples:
//
//	skipper-serve -model vgg5 -weights weights.skpw -T 48 -early-exit
//	skipper-serve -model lenet -classes 11 -in-shape 2x16x16 -addr :8090
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"skipper/internal/cli"
	"skipper/internal/core"
	"skipper/internal/layers"
	"skipper/internal/models"
	"skipper/internal/serve"
	"skipper/internal/snn"
	"skipper/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		fleetAddr = flag.String("fleet-addr", "", "framed-TCP fleet listener for skipper-router (empty = HTTP only)")
		model     = flag.String("model", "vgg5", "topology: "+strings.Join(models.Names(), "|"))
		weights   = flag.String("weights", "", "serialize checkpoint to serve (empty = fresh deterministic init)")
		width     = flag.Float64("width", 0.5, "channel-width multiplier (must match the checkpoint)")
		classes   = flag.Int("classes", 10, "output classes (must match the checkpoint)")
		inShape   = flag.String("in-shape", "3x16x16", "per-sample input shape CxHxW")
		surrName  = flag.String("surrogate", "triangle", "surrogate gradient (affects topology build only)")
		T         = flag.Int("T", 32, "simulation timesteps per request")
		earlyExit = flag.Bool("early-exit", true, "stop stepping once the readout decision is stable")
		exitK     = flag.Int("exit-k", 0, "early-exit stability window (0 = default)")
		exitM     = flag.Float64("exit-margin", 0, "early-exit relative-margin gate (0 = default, <0 disables)")
		maxBatch  = flag.Int("max-batch", 8, "micro-batch size cap")
		queue     = flag.Int("queue", 64, "pending-request queue depth (full = 429)")
		workers   = flag.Int("workers", 2, "batch workers (each owns a network replica)")
		threads   = flag.Int("threads", 0, "shared compute-pool width for kernels (0 = all cores)")
		timeout   = flag.Duration("timeout", 2*time.Second, "per-request latency budget")
		seed      = flag.Uint64("encode-seed", 1, "Poisson encoding seed")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain bound")
		routers   = flag.String("routers", "", "comma-separated router peer-channel addresses to announce a graceful shutdown to before draining")
		advertise = flag.String("advertise-url", "", "this replica's base URL as the routers know it (default: http://127.0.0.1<addr> when -addr is :port)")
		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON profile on shutdown to this file")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and /debug/spans on this address (e.g. localhost:6060)")

		sessionDir  = flag.String("session-dir", "", "directory for durable streaming-session snapshots (empty = sessions are memory-only)")
		sessionTTL  = flag.Duration("session-ttl", 5*time.Minute, "evict a streaming session idle longer than this")
		sessionSnap = flag.Int("session-snapshot-every", 8, "snapshot a durable session every N windows (<0 disables periodic snapshots)")
		streamSkip  = flag.Int("stream-skip-threshold", 0, "step windows with at most this many events as empty windows (0 = only empty windows, lossless; <0 disables)")
	)
	flag.Parse()

	shape, err := parseShape(*inShape)
	if err != nil {
		cli.Fatal(err)
	}
	surr, err := snn.ByName(*surrName)
	if err != nil {
		cli.Fatal(err)
	}
	build := func() (*layers.Network, error) {
		return models.Build(*model, models.Options{
			Width:     *width,
			Classes:   *classes,
			InShape:   shape,
			Surrogate: surr,
		})
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

	rt := core.NewRuntime(core.WithThreads(*threads), core.WithTracer(tracer))
	defer rt.Close()
	s, err := serve.NewServer(serve.Config{
		Build:          build,
		Runtime:        rt,
		T:              *T,
		EarlyExit:      *earlyExit,
		ExitK:          *exitK,
		ExitMargin:     *exitM,
		MaxBatch:       *maxBatch,
		QueueDepth:     *queue,
		Workers:        *workers,
		RequestTimeout: *timeout,
		EncodeSeed:     *seed,

		SessionDir:           *sessionDir,
		SessionTTL:           *sessionTTL,
		SessionSnapshotEvery: *sessionSnap,
		StreamSkipThreshold:  *streamSkip,
	}, *weights)
	if err != nil {
		cli.Fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	var fleetLN net.Listener
	if *fleetAddr != "" {
		fleetLN, err = net.Listen("tcp", *fleetAddr)
		if err != nil {
			cli.Fatal(err)
		}
		go s.ServeFleet(fleetLN)
		fmt.Printf("fleet transport on %s\n", fleetLN.Addr())
	}

	snap := s.Model().Current()
	src := snap.Path
	if src == "" {
		src = "fresh initialisation"
	}
	fmt.Printf("serving %s (%s) on %s  T=%d early-exit=%v workers=%d max-batch=%d threads=%d\n",
		*model, src, *addr, *T, *earlyExit, *workers, *maxBatch, rt.Threads())

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case err := <-errc:
			cli.Fatal(err)
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				snap, err := s.Reload("")
				if err != nil {
					fmt.Fprintln(os.Stderr, "reload failed:", err)
					continue
				}
				fmt.Printf("reloaded %s (generation %d)\n", snap.Path, snap.Version)
				continue
			}
			fmt.Printf("%s received, draining...\n", sig)
			// Backend-initiated drain handoff: tell the router tier first, so
			// it vacates this replica's ring arcs with zero missed-heartbeat
			// window, then stop accepting and drain what is in flight.
			announced := 0
			if addrs := splitAddrs(*routers); len(addrs) > 0 {
				selfURL := *advertise
				if selfURL == "" && strings.HasPrefix(*addr, ":") {
					selfURL = "http://127.0.0.1" + *addr
				}
				if selfURL == "" {
					fmt.Fprintln(os.Stderr, "skipping drain announcement: -advertise-url required when -addr is not :port")
				} else {
					announced = serve.AnnounceDrain(addrs, selfURL, 2*time.Second)
					fmt.Printf("drain announced to %d/%d routers\n", announced, len(addrs))
				}
			}
			// Migration grace: an announced router pulls this replica's live
			// streaming sessions over the fleet channel, so the listener must
			// stay open until the registry empties (bounded — stragglers are
			// snapshotted to the session dir by Drain instead).
			if n := s.Streams().Count(); n > 0 && announced > 0 {
				grace := *drainWait / 3
				fmt.Printf("waiting for %d streaming sessions to migrate (up to %v)...\n", n, grace)
				mctx, mcancel := context.WithTimeout(context.Background(), grace)
				if s.Streams().WaitEmpty(mctx) {
					fmt.Println("all sessions migrated")
				} else {
					fmt.Printf("%d sessions still here; snapshotting at drain\n", s.Streams().Count())
				}
				mcancel()
			}
			if fleetLN != nil {
				fleetLN.Close()
			}
			ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
			drainErr := s.Drain(ctx)
			shutErr := hs.Shutdown(ctx)
			cancel()
			if drainErr != nil {
				cli.Fatal(drainErr)
			}
			if shutErr != nil {
				cli.Fatal(shutErr)
			}
			if *tracePath != "" {
				if err := cli.WriteTrace(*tracePath, tracer); err != nil {
					cli.Fatal(err)
				}
				fmt.Printf("trace written to %s\n", *tracePath)
			}
			fmt.Println("drained cleanly")
			return
		}
	}
}

// splitAddrs parses a comma-separated address list, dropping empties.
func splitAddrs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseShape parses "CxHxW" into [C,H,W].
func parseShape(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return nil, fmt.Errorf("in-shape %q: want CxHxW", s)
	}
	out := make([]int, 3)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("in-shape %q: bad dimension %q", s, p)
		}
		out[i] = v
	}
	return out, nil
}
