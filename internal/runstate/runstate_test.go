package runstate

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"skipper/internal/core"
	"skipper/internal/dataset"
	"skipper/internal/faults"
	"skipper/internal/layers"
	"skipper/internal/models"
	"skipper/internal/serialize"
	"skipper/internal/tensor"
)

// testTrainer builds a small deterministic run: customnet with batch norm
// (so the manifest carries running-stat buffers), the synthetic cifar10
// source, and the given strategy.
func testTrainer(t *testing.T, strat core.Strategy, cfg core.Config) *core.Trainer {
	t.Helper()
	net, err := models.Build("customnet", models.Options{
		Width: 0.5, InShape: []int{3, 16, 16}, Classes: 10, BatchNorm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := dataset.Open("cifar10", 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewTrainer(net, data, strat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

// eventTrainer is testTrainer on the benchmark's event configuration: lenet
// at half width on dvsgesture, where most timesteps of a T=120 batch have an
// all-zero input and count as quiet steps.
func eventTrainer(t *testing.T, strat core.Strategy, cfg core.Config) *core.Trainer {
	t.Helper()
	data, err := dataset.Open("dvsgesture", 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := models.Build("lenet", models.Options{Width: 0.5, InShape: data.InShape(), Classes: data.Classes()})
	if err != nil {
		t.Fatal(err)
	}
	cfg.T = 120
	tr, err := core.NewTrainer(net, data, strat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

func testCfg() core.Config {
	return core.Config{T: 6, Batch: 2, MaxBatchesPerEpoch: 4, Seed: 11, SnapshotEvery: 2}
}

// normalize strips the wall-clock fields so epoch aggregates can be compared
// across runs.
func normalize(ep core.EpochStats) core.EpochStats {
	ep.Duration = 0
	ep.ForwardTime, ep.RecomputeTime, ep.BackwardTime = 0, 0, 0
	return ep
}

func requireSameWeights(t *testing.T, a, b *core.Trainer, context string) {
	t.Helper()
	pa, pb := a.Net.Params(), b.Net.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatalf("%s: weight %s[%d]: %v != %v", context, pa[i].Name, j, pa[i].W.Data[j], pb[i].W.Data[j])
			}
		}
	}
	oa, ob := a.Opt.StateTensors(), b.Opt.StateTensors()
	for i := range oa {
		for j := range oa[i].T.Data {
			if oa[i].T.Data[j] != ob[i].T.Data[j] {
				t.Fatalf("%s: optimizer state %s[%d]: %v != %v", context, oa[i].Name, j, oa[i].T.Data[j], ob[i].T.Data[j])
			}
		}
	}
	ba, bb := a.Net.Buffers(), b.Net.Buffers()
	for i := range ba {
		for j := range ba[i].T.Data {
			if ba[i].T.Data[j] != bb[i].T.Data[j] {
				t.Fatalf("%s: buffer %s[%d]: %v != %v", context, ba[i].Name, j, ba[i].T.Data[j], bb[i].T.Data[j])
			}
		}
	}
}

// crashStrategy aborts the run at the n-th TrainBatch call (1-based),
// simulating the process dying mid-epoch; the batches before it train
// normally.
type crashStrategy struct {
	inner core.Strategy
	calls *int
	at    int
}

var errCrash = errors.New("simulated crash")

func (c crashStrategy) Name() string { return c.inner.Name() }
func (c crashStrategy) Validate(cfg core.Config, net *layers.Network) error {
	return c.inner.Validate(cfg, net)
}
func (c crashStrategy) TrainBatch(tr *core.Trainer, in []*tensor.Tensor, lbl []int) (core.StepStats, error) {
	*c.calls++
	if *c.calls == c.at {
		return core.StepStats{}, errCrash
	}
	return c.inner.TrainBatch(tr, in, lbl)
}

func sampleManifest() *Manifest {
	return &Manifest{
		Meta: Meta{
			Strategy:  "bptt",
			Optimizer: "adam",
			Seed:      9,
			OptSteps:  17,
			LRScale:   0.25,
			Cursor:    core.Cursor{NextEpoch: 3, NextBatch: 2, Iteration: 10},
			Partial:   core.EpochStats{Batches: 2},
			Divergences: []core.DivergenceEvent{
				{Epoch: 2, Batch: 1, Loss: 3.5, GradNorm: 99, LRScale: 0.25, Reason: "non-finite loss"},
			},
		},
		weights: []byte("weights-blob"),
		opt:     []byte("optimizer-blob"),
		buffers: []byte("buffers"),
	}
}

func TestManifestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleManifest()
	m.Meta.SavedAt = time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	raw, err := m.encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Strategy != m.Meta.Strategy || got.Meta.Cursor != m.Meta.Cursor ||
		got.Meta.OptSteps != m.Meta.OptSteps || got.Meta.LRScale != m.Meta.LRScale ||
		got.Meta.Seed != m.Meta.Seed || !got.Meta.SavedAt.Equal(m.Meta.SavedAt) {
		t.Fatalf("meta mismatch: %+v vs %+v", got.Meta, m.Meta)
	}
	if len(got.Meta.Divergences) != 1 || got.Meta.Divergences[0] != m.Meta.Divergences[0] {
		t.Fatalf("divergence log mismatch: %+v", got.Meta.Divergences)
	}
	if !bytes.Equal(got.weights, m.weights) || !bytes.Equal(got.opt, m.opt) || !bytes.Equal(got.buffers, m.buffers) {
		t.Fatal("blob mismatch")
	}

	// Every strict prefix must be rejected, the very short ones as
	// ErrTruncated.
	for n := 0; n < len(raw); n++ {
		if _, err := decode(raw[:n]); err == nil {
			t.Fatalf("truncation at byte %d/%d must fail", n, len(raw))
		}
	}
	if _, err := decode(raw[:10]); !errors.Is(err, serialize.ErrTruncated) {
		t.Fatalf("short prefix should be ErrTruncated, got: %v", err)
	}
	// Corruption fails the checksum; extra bytes fail too.
	flip := append([]byte(nil), raw...)
	flip[len(flip)/3] ^= 0x40
	if _, err := decode(flip); err == nil {
		t.Fatal("corruption must fail the checksum")
	}
	if _, err := decode(append(append([]byte(nil), raw...), 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

// The crash-safety acceptance sweep: with a good manifest on disk, kill a
// replacement save at EVERY byte boundary (plus the rename, sync, and create
// instants) and assert the store still loads a complete manifest — the old
// one — afterwards. The Injector's visible on-disk states are exactly those
// a SIGKILL at the same instant would leave.
func TestManifestSurvivesKillAtEveryByte(t *testing.T) {
	inj := faults.NewInjector(nil)
	store, err := Open(t.TempDir(), inj, faults.Fixed(time.Date(2026, 8, 5, 9, 0, 0, 0, time.UTC)))
	if err != nil {
		t.Fatal(err)
	}
	old := sampleManifest()
	if err := store.Save(old); err != nil {
		t.Fatal(err)
	}
	replacement := sampleManifest()
	replacement.Meta.OptSteps = 99
	full, err := replacement.encode()
	if err != nil {
		t.Fatal(err)
	}

	checkOldSurvives := func(instant string) {
		t.Helper()
		got, err := store.Load()
		if err != nil {
			t.Fatalf("kill %s: manifest no longer loads: %v", instant, err)
		}
		if got.Meta.OptSteps != old.Meta.OptSteps {
			t.Fatalf("kill %s: loaded a torn manifest (opt steps %d)", instant, got.Meta.OptSteps)
		}
	}

	for b := 0; b < len(full); b++ {
		inj.FailWritesAfter(int64(b))
		if err := store.Save(replacement); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("kill at byte %d: want injected fault, got %v", b, err)
		}
		inj.Reset()
		checkOldSurvives(fmt.Sprintf("at byte %d", b))
	}

	inj.FailCreate(true)
	if err := store.Save(replacement); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("want create fault, got %v", err)
	}
	inj.Reset()
	checkOldSurvives("at create")

	inj.FailSync(true)
	if err := store.Save(replacement); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("want sync fault, got %v", err)
	}
	inj.Reset()
	checkOldSurvives("at sync")

	inj.FailRename(true)
	if err := store.Save(replacement); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("want rename fault, got %v", err)
	}
	inj.Reset()
	checkOldSurvives("at rename")

	// With the faults cleared the replacement lands completely.
	if err := store.Save(replacement); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load()
	if err != nil || got.Meta.OptSteps != 99 {
		t.Fatalf("replacement did not land: %+v, %v", got, err)
	}
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	cfg := testCfg()
	a := testTrainer(t, core.BPTT{}, cfg)
	if _, err := a.TrainEpoch(); err != nil {
		t.Fatal(err)
	}
	m, err := Capture(a, a.CursorAt(), core.EpochStats{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(m); err != nil {
		t.Fatal(err)
	}
	if !store.Exists() {
		t.Fatal("Exists must see the saved manifest")
	}

	loaded, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	b := testTrainer(t, core.BPTT{}, cfg)
	if err := loaded.Restore(b); err != nil {
		t.Fatal(err)
	}
	requireSameWeights(t, a, b, "after restore")
	if b.Epoch() != a.Epoch() || b.Iteration() != a.Iteration() {
		t.Fatalf("cursor not restored: epoch %d/%d iteration %d/%d",
			b.Epoch(), a.Epoch(), b.Iteration(), a.Iteration())
	}

	// Both trainers continue identically: the restored run is the run.
	epA, err := a.TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	epB, err := b.TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if normalize(epA) != normalize(epB) {
		t.Fatalf("post-restore epochs differ:\n  original: %+v\n  restored: %+v", normalize(epA), normalize(epB))
	}
	requireSameWeights(t, a, b, "one epoch after restore")
}

func TestRestoreRejectsMismatchedRun(t *testing.T) {
	cfg := testCfg()
	a := testTrainer(t, core.BPTT{}, cfg)
	m, err := Capture(a, a.CursorAt(), core.EpochStats{})
	if err != nil {
		t.Fatal(err)
	}

	wrongStrat := testTrainer(t, core.TBPTT{Window: 5}, cfg)
	if err := m.Restore(wrongStrat); err == nil || !strings.Contains(err.Error(), "strategy") {
		t.Fatalf("want strategy mismatch, got: %v", err)
	}
	wrongSeedCfg := cfg
	wrongSeedCfg.Seed = 12
	wrongSeed := testTrainer(t, core.BPTT{}, wrongSeedCfg)
	if err := m.Restore(wrongSeed); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("want seed mismatch, got: %v", err)
	}
}

// The end-to-end acceptance property: a run killed mid-epoch and resumed
// from its last durable manifest finishes with bit-identical weights,
// optimizer state, and buffers to the run that was never interrupted.
func TestKillResumeBitIdentical(t *testing.T) {
	cfg := testCfg()
	const epochs = 3

	// Reference: uninterrupted.
	ref := testTrainer(t, core.BPTT{}, cfg)
	refStats := make([]core.EpochStats, 0, epochs)
	for e := 1; e <= epochs; e++ {
		ep, err := ref.TrainEpoch()
		if err != nil {
			t.Fatal(err)
		}
		refStats = append(refStats, ep)
	}

	// Victim: snapshots every 2 batches, dies at epoch 2 batch 3 (call 8).
	dir := t.TempDir()
	store, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	victim := testTrainer(t, crashStrategy{inner: core.BPTT{}, calls: &calls, at: 8}, cfg)
	Attach(victim, store)
	if _, err := victim.TrainEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.TrainEpoch(); !errors.Is(err, errCrash) {
		t.Fatalf("victim should have crashed, got: %v", err)
	}

	// Survivor: a fresh process — new network, new optimizer — resumed from
	// the manifest the victim left behind.
	survivor := testTrainer(t, core.BPTT{}, cfg)
	Attach(survivor, store)
	cur, partial, err := Resume(survivor, store)
	if err != nil {
		t.Fatal(err)
	}
	if cur.NextEpoch != 2 || cur.NextBatch != 2 {
		t.Fatalf("resume cursor = %+v, want epoch 2 batch 2 (the last snapshot before the crash)", cur)
	}
	ep2, err := survivor.ResumeEpoch(cur.NextBatch, partial)
	if err != nil {
		t.Fatal(err)
	}
	if normalize(ep2) != normalize(refStats[1]) {
		t.Fatalf("resumed epoch 2 differs:\n  resumed:  %+v\n  straight: %+v", normalize(ep2), normalize(refStats[1]))
	}
	for e := 3; e <= epochs; e++ {
		ep, err := survivor.TrainEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if normalize(ep) != normalize(refStats[e-1]) {
			t.Fatalf("epoch %d after resume differs:\n  resumed:  %+v\n  straight: %+v", e, normalize(ep), normalize(refStats[e-1]))
		}
	}
	requireSameWeights(t, ref, survivor, "end of resumed run")

	// The survivor's own snapshots kept the manifest moving: it now points
	// past the final epoch.
	final, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if final.Meta.Cursor.NextEpoch != epochs+1 || final.Meta.Cursor.NextBatch != 0 {
		t.Fatalf("final manifest cursor = %+v, want {%d 0 _}", final.Meta.Cursor, epochs+1)
	}
}

// The resume property holds for every training strategy, not just BPTT: the
// per-epoch aggregates of a killed-and-resumed run match the uninterrupted
// sequence exactly.
func TestResumeMatchesUninterruptedAllStrategies(t *testing.T) {
	strategies := map[string]func() core.Strategy{
		"bptt":    func() core.Strategy { return core.BPTT{} },
		"skipper": func() core.Strategy { return core.Skipper{C: 1, P: 20} },
		"tbptt":   func() core.Strategy { return core.TBPTT{Window: 5} },
		// On event data: the quiet-step count rides the manifest's partial
		// aggregate, and the rank cut must pick the same survivors again.
		"skipper/events": func() core.Strategy { return core.Skipper{C: 6, P: 59} },
	}
	for name, mk := range strategies {
		t.Run(name, func(t *testing.T) {
			cfg := testCfg()
			cfg.SnapshotEvery = 1
			testTrainer := testTrainer
			if strings.HasSuffix(name, "/events") {
				testTrainer = eventTrainer
			}

			ref := testTrainer(t, mk(), cfg)
			var refStats []core.EpochStats
			for e := 1; e <= 2; e++ {
				ep, err := ref.TrainEpoch()
				if err != nil {
					t.Fatal(err)
				}
				refStats = append(refStats, ep)
			}

			store, err := Open(t.TempDir(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			victim := testTrainer(t, crashStrategy{inner: mk(), calls: &calls, at: 6}, cfg)
			Attach(victim, store)
			ep1, err := victim.TrainEpoch()
			if err != nil {
				t.Fatal(err)
			}
			if normalize(ep1) != normalize(refStats[0]) {
				t.Fatalf("pre-crash epoch 1 differs")
			}
			if _, err := victim.TrainEpoch(); !errors.Is(err, errCrash) {
				t.Fatalf("victim should have crashed, got: %v", err)
			}

			survivor := testTrainer(t, mk(), cfg)
			cur, partial, err := Resume(survivor, store)
			if err != nil {
				t.Fatal(err)
			}
			ep2, err := survivor.ResumeEpoch(cur.NextBatch, partial)
			if err != nil {
				t.Fatal(err)
			}
			if normalize(ep2) != normalize(refStats[1]) {
				t.Fatalf("resumed epoch 2 differs:\n  resumed:  %+v\n  straight: %+v", normalize(ep2), normalize(refStats[1]))
			}
			requireSameWeights(t, ref, survivor, "end of resumed "+name+" run")
			if strings.HasSuffix(name, "/events") && (ep2.QuietSteps == 0 || partial.QuietSteps == 0) {
				t.Fatalf("no quiet steps counted (epoch %d, restored partial %d): the case would not exercise the quiet step", ep2.QuietSteps, partial.QuietSteps)
			}
		})
	}
}

// A second manifest generation must atomically replace the first even when
// the previous process left a stale temp file behind (a real crash does not
// run the error-path cleanup).
func TestSaveIgnoresStaleTemp(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path()+".tmp", []byte("stale garbage from a dead process"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := sampleManifest()
	if err := store.Save(m); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load()
	if err != nil || got.Meta.OptSteps != m.Meta.OptSteps {
		t.Fatalf("save over stale temp failed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
}
