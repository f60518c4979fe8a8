package runstate

import (
	"errors"
	"testing"

	"skipper/internal/core"
)

// A segmented run composes with crash-safe resume: Checkpoint and Skipper
// with two segments, killed mid-epoch and resumed from the manifest, end
// byte-equal to the same run left uninterrupted — every boundary record the
// killed process held, its membranes alone, is rebuilt by the survivor's own
// first pass.
func TestSegmentedResumeMatchesUninterrupted(t *testing.T) {
	// Two segments need T/C > L_n (= 4 for customnet+BN).
	cfg := testCfg()
	cfg.T = 12
	cfg.SnapshotEvery = 1
	for name, mk := range map[string]func() core.Strategy{
		"ckpt":    func() core.Strategy { return core.Checkpoint{C: 2} },
		"skipper": func() core.Strategy { return core.Skipper{C: 2, P: 30} },
	} {
		t.Run(name, func(t *testing.T) {
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
				t.Fatalf("pre-crash epoch 1 differs from uninterrupted:\n  victim: %+v\n  ref:    %+v",
					normalize(ep1), normalize(refStats[0]))
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
				t.Fatalf("resumed epoch 2 differs from uninterrupted:\n  survivor: %+v\n  ref:      %+v",
					normalize(ep2), normalize(refStats[1]))
			}
			if ep2.RecomputedSteps == 0 {
				t.Fatal("nothing replayed: no boundary record was exercised")
			}
			requireSameWeights(t, ref, survivor, name+" resume vs uninterrupted")
		})
	}
}
