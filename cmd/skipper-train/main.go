// Command skipper-train trains one SNN with a chosen strategy and reports
// accuracy, timing, and device-memory statistics per epoch.
//
// Examples:
//
//	skipper-train -model vgg5 -data cifar10 -strategy skipper -T 48 -C 4 -p 40 -epochs 3
//	skipper-train -model lenet -data dvsgesture -strategy ckpt -C 2 -T 36
//	skipper-train -model resnet20 -data cifar10 -strategy tbptt -trw 24
//	skipper-train -model vgg5 -strategy auto -budget-mib 8 -save weights.skpw
//	skipper-train -model vgg5 -load weights.skpw -epochs 1
//	skipper-train -model vgg5 -run-dir runs/vgg5 -snapshot-every 50 -epochs 20
//	skipper-train -model vgg5 -run-dir runs/vgg5 -resume
//
// With -run-dir the full run state (weights, optimizer moments, RNG cursor,
// divergence-guard state) is persisted atomically at every snapshot point;
// after a crash or an interrupt, -resume continues the run bit-identically.
// SIGINT/SIGTERM checkpoint at the next snapshot boundary and exit with
// code 3 so wrappers can distinguish "interrupted but resumable" from
// failure.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"skipper/internal/cli"
	"skipper/internal/core"
	"skipper/internal/dataset"
	"skipper/internal/dist"
	"skipper/internal/mem"
	"skipper/internal/models"
	"skipper/internal/runstate"
	"skipper/internal/serialize"
	"skipper/internal/snn"
	"skipper/internal/trace"
)

// exitInterrupted is the exit code of a run that checkpointed and stopped on
// SIGINT/SIGTERM — resumable, not failed.
const exitInterrupted = 3

// exitCoordinatorLost is the exit code of a distributed worker that
// exhausted its reconnect budget — restartable against the same coordinator,
// not failed.
const exitCoordinatorLost = 4

// errInterrupted aborts the epoch loop right after a durable snapshot.
var errInterrupted = errors.New("interrupted after checkpoint")

func main() {
	var (
		model    = flag.String("model", "vgg5", "topology: "+strings.Join(models.Names(), "|"))
		data     = flag.String("data", "cifar10", "dataset: "+strings.Join(dataset.Names(), "|"))
		strategy = flag.String("strategy", "skipper", "training strategy: bptt | ckpt | skipper | adaskipper | tbptt | tbptt-lbp | auto")
		T        = flag.Int("T", 48, "simulation timesteps")
		C        = flag.Int("C", 4, "temporal checkpoints (ckpt/skipper)")
		p        = flag.Float64("p", 0, "skip percentile (skipper; 0 = auto 85% of the Eq.7 bound)")
		trw      = flag.Int("trw", 0, "truncation window (tbptt variants; 0 = T/4)")
		batch    = flag.Int("batch", 8, "mini-batch size")
		epochs   = flag.Int("epochs", 2, "training epochs")
		lr       = flag.Float64("lr", 1e-3, "learning rate")
		width    = flag.Float64("width", 0.5, "channel-width multiplier")
		sam      = flag.String("sam", "spikesum", "SAM metric: spikesum | weighted | membranel2")
		surrName = flag.String("surrogate", "triangle", "surrogate gradient: triangle | fastsigmoid | atan | rectangular")
		seed     = flag.Uint64("seed", 1, "seed")
		threads  = flag.Int("threads", 0, "compute-pool width for kernels (0 = all cores; results are bit-identical at every width)")
		pack     = flag.Bool("spike-pack", false, "bit-packed spike compute: AND+popcount kernels and packed checkpoint records (bit-identical results)")
		budget   = flag.Int64("budget-mib", 0, "device budget in MiB (0 = unlimited)")
		maxB     = flag.Int("max-batches", 0, "cap batches per epoch (0 = full epoch)")
		pretrain = flag.Bool("pretrain", true, "hybrid-style pre-initialisation before the main run")
		savePath = flag.String("save", "", "write best-so-far weights to this file after each epoch")
		loadPath = flag.String("load", "", "initialise weights from this file (skips pretrain)")

		runDir    = flag.String("run-dir", "", "durable run-state directory (enables crash-safe resume)")
		resume    = flag.Bool("resume", false, "resume from the manifest in -run-dir")
		snapEvery = flag.Int("snapshot-every", 0, "also persist run state every K batches (0 = epoch boundaries only)")
		guardN    = flag.Int("guard-retries", 0, "divergence guard: max rollback+LR-halving retries per run (0 = off)")
		guardGN   = flag.Float64("guard-grad-norm", 0, "divergence guard: gradient-norm explosion threshold (0 = NaN/Inf only)")

		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON profile of the run to this file")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and /debug/spans on this address (e.g. localhost:6060)")

		microBatch     = flag.Int("micro-batch", 0, "gradient micro-batch size (0 = whole batch; 1 matches distributed one-sample-shard accumulation bitwise)")
		distListen     = flag.String("dist-listen", "", "run as distributed coordinator (rank 0): listen for workers on this address")
		distJoin       = flag.String("dist-join", "", "run as distributed worker: join the coordinator at this address")
		distWorkers    = flag.Int("dist-workers", 1, "coordinator: number of worker ranks to wait for (world = workers + 1)")
		distTopology   = flag.String("dist-topology", dist.TopologyStar, "gradient exchange topology: star (workers upload to rank 0) or ring (ranks forward chunks to their successor; bit-identical result)")
		distRingListen = flag.String("dist-ring-listen", "", "ring topology: bind the rank's ring-data listener here (default 127.0.0.1:0)")
	)
	flag.Parse()
	if *resume && *runDir == "" {
		cli.Fatal(fmt.Errorf("-resume requires -run-dir"))
	}
	if *distListen != "" && *distJoin != "" {
		cli.Fatal(fmt.Errorf("-dist-listen and -dist-join are mutually exclusive"))
	}
	distMode := *distListen != "" || *distJoin != ""
	if distMode && *runDir != "" {
		cli.Fatal(fmt.Errorf("-run-dir is not supported in distributed mode; workers resync from the coordinator's manifest instead"))
	}
	if distMode && *guardN != 0 {
		cli.Fatal(fmt.Errorf("the divergence guard's rollback is per-process and would desynchronize ranks; use -guard-retries 0 in distributed mode"))
	}
	distOpts := dist.Options{Topology: *distTopology, RingListen: *distRingListen}
	if err := distOpts.Validate(); err != nil {
		cli.Fatal(err)
	}

	src, err := dataset.Open(*data, *seed)
	if err != nil {
		cli.Fatal(err)
	}
	surr, err := snn.ByName(*surrName)
	if err != nil {
		cli.Fatal(err)
	}
	net, err := models.Build(*model, models.Options{
		Width:     *width,
		Classes:   src.Classes(),
		InShape:   src.InShape(),
		Surrogate: surr,
	})
	if err != nil {
		cli.Fatal(err)
	}
	ln := net.StatefulCount()
	fmt.Print(net.Summary())

	if *trw == 0 {
		*trw = *T / 4
		if *trw <= ln {
			*trw = ln + 1
		}
	}
	if *p == 0 {
		*p = float64(int(0.85 * core.MaxSkipPercent(*T, *C, ln)))
	}
	metric, err := core.SAMByName(*sam)
	if err != nil {
		cli.Fatal(err)
	}
	var strat core.Strategy
	switch *strategy {
	case "auto":
		plan, err := core.AutoTune(net, src.InShape(), core.Config{T: *T, Batch: *batch}, *budget<<20)
		if err != nil {
			cli.Fatal(err)
		}
		strat = plan.Strategy
		fmt.Printf("autotune: %s — %s (predicted peak %s)\n",
			strat.Name(), plan.Reason, mem.FormatBytes(plan.PredictedPeak))
	case "bptt":
		strat = core.BPTT{}
	case "ckpt":
		strat = core.Checkpoint{C: *C}
	case "skipper":
		strat = core.Skipper{C: *C, P: *p, Metric: metric}
	case "adaskipper":
		strat = &core.AdaptiveSkipper{C: *C, P: *p, Metric: metric}
	case "tbptt":
		strat = core.TBPTT{Window: *trw}
	case "tbptt-lbp":
		mid := len(net.Layers) / 2
		strat = &core.TBPTTLBP{Window: *trw, LocalAt: []int{mid}}
	default:
		cli.Fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}

	dev := mem.NewDevice(mem.Config{Budget: *budget << 20})
	switch {
	case *resume:
		// The manifest restores the weights; pretrain or -load would be
		// overwritten anyway.
	case *distJoin != "":
		// A worker's weights are overwritten by the coordinator's resync
		// manifest the moment it joins; pretraining them would be wasted.
	case *loadPath != "":
		fmt.Printf("loading weights from %s\n", *loadPath)
		if err := serialize.LoadFile(*loadPath, net); err != nil {
			cli.Fatal(err)
		}
	case *pretrain:
		fmt.Println("pre-initialising (hybrid protocol)...")
		if err := core.Pretrain(net, src, core.PretrainConfig{Seed: *seed, Batch: *batch}); err != nil {
			cli.Fatal(err)
		}
	}
	// Tracing: the span recorder only exists when someone will read it; a
	// nil tracer keeps every hot path at its untraced cost.
	var tracer *trace.Tracer
	if *tracePath != "" || *debugAddr != "" {
		tracer = trace.New(0)
	}
	flushTrace := func() {
		if *tracePath == "" {
			return
		}
		if err := cli.WriteTrace(*tracePath, tracer); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *tracePath)
	}
	var distMetrics *dist.Metrics
	var mounts []cli.Mount
	if *distListen != "" {
		distMetrics = dist.NewMetrics(*distWorkers + 1)
		mounts = append(mounts, cli.Mount{Pattern: "/metrics", Handler: distMetrics.Handler()})
	}
	if dbg, err := cli.StartDebug(*debugAddr, tracer, mounts...); err != nil {
		cli.Fatal(err)
	} else if dbg != "" {
		fmt.Printf("debug server on http://%s/debug/pprof/ and /debug/spans\n", dbg)
	}

	rt := core.NewRuntime(core.WithThreads(*threads), core.WithSeed(*seed), core.WithTracer(tracer))
	defer rt.Close()
	tr, err := core.NewTrainer(net, src, strat, core.Config{
		Runtime: rt,
		T:       *T, Batch: *batch, LR: float32(*lr), Seed: *seed,
		Device: dev, MaxBatchesPerEpoch: *maxB,
		MicroBatch:    *microBatch,
		SnapshotEvery: *snapEvery,
		GuardRetries:  *guardN,
		GuardGradNorm: float32(*guardGN),
		// -spike-pack buys both halves of the packed story: packed compute
		// kernels and packed (compressed) checkpoint boundary records.
		SpikePack:      *pack,
		CompressSpikes: *pack,
	})
	if err != nil {
		cli.Fatal(err)
	}
	defer tr.Close()

	if distMode {
		if *distJoin != "" {
			runDistWorker(tr, *distJoin, distOpts, tracer, *savePath)
		} else {
			runDistCoordinator(tr, *distListen, *distWorkers, *epochs, distOpts, tracer, distMetrics, *savePath)
		}
		flushTrace()
		return
	}

	// Durable run state: every snapshot mark lands atomically in the run
	// directory, and SIGINT/SIGTERM turn the next mark into a clean exit.
	startEpoch, startBatch := 1, 0
	var partial core.EpochStats
	resuming := false
	var interrupted atomic.Bool
	if *runDir != "" {
		store, err := runstate.Open(*runDir, nil, nil)
		if err != nil {
			cli.Fatal(err)
		}
		if *resume {
			if !store.Exists() {
				cli.Fatal(fmt.Errorf("no manifest at %s to resume from", store.Path()))
			}
			cur, part, err := runstate.Resume(tr, store)
			if err != nil {
				cli.Fatal(err)
			}
			startEpoch, startBatch, partial, resuming = cur.NextEpoch, cur.NextBatch, part, true
			fmt.Printf("resuming from %s: epoch %d, batch %d, iteration %d\n",
				store.Path(), cur.NextEpoch, cur.NextBatch, cur.Iteration)
		}
		runstate.Attach(tr, store)
		persist := tr.Cfg.OnSnapshot
		tr.Cfg.OnSnapshot = func(cur core.Cursor, ep core.EpochStats) error {
			if err := persist(cur, ep); err != nil {
				return err
			}
			if interrupted.Load() {
				return errInterrupted
			}
			return nil
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			interrupted.Store(true)
			fmt.Fprintln(os.Stderr, "\ninterrupt: checkpointing at the next snapshot boundary, then exiting")
			signal.Stop(sig) // a second signal kills immediately
		}()
	}

	if startEpoch > *epochs {
		fmt.Printf("nothing to do: manifest is already past epoch %d\n", *epochs)
		return
	}
	fmt.Printf("training %s on %s with %s  (T=%d B=%d L_n=%d threads=%d)\n",
		*model, src.Name(), strat.Name(), *T, *batch, ln, rt.Threads())
	bestAcc := -1.0
	for e := startEpoch; e <= *epochs; e++ {
		start := time.Now()
		var ep core.EpochStats
		if resuming && e == startEpoch {
			ep, err = tr.ResumeEpoch(startBatch, partial)
		} else {
			ep, err = tr.TrainEpoch()
		}
		if errors.Is(err, errInterrupted) {
			fmt.Printf("interrupted during epoch %d; run state saved to %s\n", e, *runDir)
			fmt.Printf("resume with:\n  %s\n", resumeCommand())
			flushTrace()
			os.Exit(exitInterrupted)
		}
		if err != nil {
			cli.Fatal(err)
		}
		_, acc, err := tr.Evaluate(8)
		if err != nil {
			cli.Fatal(err)
		}
		guard := ""
		if ep.Divergences > 0 {
			guard = fmt.Sprintf("  divergences %d (lr ×%g)", ep.Divergences, tr.LRScale())
		}
		fmt.Printf("epoch %2d  loss %.4f  train-acc %5.2f%%  test-acc %5.2f%%  time %s  skipped %d/%d steps  quiet %d/%d%s\n",
			e, ep.MeanLoss(), 100*ep.Accuracy(), 100*acc,
			time.Since(start).Round(time.Millisecond),
			ep.SkippedSteps, ep.SkippedSteps+ep.RecomputedSteps,
			ep.QuietSteps, ep.ForwardSteps+ep.RecomputedSteps, guard)
		if *savePath != "" && acc > bestAcc {
			bestAcc = acc
			if err := serialize.SaveFile(*savePath, net); err != nil {
				cli.Fatal(err)
			}
			fmt.Printf("          best so far — weights saved to %s\n", *savePath)
		}
	}
	st := dev.Snapshot()
	fmt.Printf("peak device memory: %s reserved, %s tensors (%s)\n",
		mem.FormatBytes(st.PeakReserved), mem.FormatBytes(st.PeakAllocated), st.Breakdown())
	if tracer != nil {
		fmt.Println("\nspan summary:")
		tracer.WriteSummary(os.Stdout)
	}
	flushTrace()
}

// runDistCoordinator trains as rank 0 of a workers+1-rank world, accepting
// worker joins on addr.
func runDistCoordinator(tr *core.Trainer, addr string, workers, epochs int, opts dist.Options, tracer *trace.Tracer, metrics *dist.Metrics, savePath string) {
	coord, err := dist.NewCoordinator(tr, dist.Config{
		World: workers + 1, Options: opts, Tracer: tracer, Metrics: metrics,
	})
	if err != nil {
		cli.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		cli.Fatal(err)
	}
	defer ln.Close()
	fmt.Printf("coordinator: rank 0 of %d (%s topology), waiting for %d worker(s) on %s\n",
		workers+1, coord.Collective().Name(), workers, ln.Addr())
	go coord.Serve(ln)
	eps, err := coord.Fit(epochs)
	for i, ep := range eps {
		fmt.Printf("epoch %2d  loss %.4f  train-acc %5.2f%%  rounds %d  time %s\n",
			i+1, ep.MeanLoss(), 100*ep.Accuracy(), ep.Batches, ep.Duration.Round(time.Millisecond))
	}
	if err != nil {
		coord.Finish("coordinator failed: " + err.Error())
		cli.Fatal(err)
	}
	coord.Finish("training complete")
	fmt.Printf("coordinator: %d rounds committed, %s exchanged\n",
		coord.Round(), mem.FormatBytes(metrics.ReduceBytes()))
	distSave(tr, savePath)
}

// runDistWorker joins the coordinator at addr and participates until done.
func runDistWorker(tr *core.Trainer, addr string, opts dist.Options, tracer *trace.Tracer, savePath string) {
	fmt.Printf("worker: joining coordinator at %s\n", addr)
	err := dist.RunWorker(tr, dist.WorkerConfig{
		Dial:    func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Options: opts,
		Tracer:  tracer,
	})
	var lost *dist.CoordinatorLostError
	if errors.As(err, &lost) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitCoordinatorLost)
	}
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Println("worker: training complete")
	distSave(tr, savePath)
}

// distSave writes the rank's final weights — every rank of a clean run saves
// byte-identical files, which the smoke script asserts.
func distSave(tr *core.Trainer, path string) {
	if path == "" {
		return
	}
	if err := serialize.SaveFile(path, tr.Net); err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("final weights saved to %s\n", path)
}

// resumeCommand reconstructs the invocation that continues this run.
func resumeCommand() string {
	args := append([]string(nil), os.Args...)
	for _, a := range args[1:] {
		if a == "-resume" || a == "--resume" || strings.HasPrefix(a, "-resume=") || strings.HasPrefix(a, "--resume=") {
			return strings.Join(args, " ")
		}
	}
	return strings.Join(append(args, "-resume"), " ")
}
