package runstate

import (
	"errors"
	"testing"

	"skipper/internal/core"
)

// CompressSpikes composes with crash-safe resume: a run whose checkpoint
// boundary records are bit-packed, killed mid-epoch and resumed from the
// manifest, ends byte-equal to the same run left uninterrupted — every
// packed record the killed process held is rebuilt by the survivor's own
// first pass.
func TestCompressSpikesResumeMatchesUninterrupted(t *testing.T) {
	// Checkpoint segments need T/C > L_n (= 4 for customnet+BN), and packed
	// boundary records only exist under CompressSpikes.
	cfg := testCfg()
	cfg.T = 12
	cfg.SnapshotEvery = 1
	cfg.CompressSpikes = true
	mk := func() core.Strategy { return core.Checkpoint{C: 2} }

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
	requireSameWeights(t, ref, survivor, "compressed resume vs uninterrupted")
}
