package analysis

import (
	"bytes"
	"strings"
	"testing"

	"skipper/internal/core"
	"skipper/internal/dataset"
	"skipper/internal/models"
)

func traceFixture(t *testing.T, T int) (*Trace, int) {
	t.Helper()
	data, err := dataset.Open("dvsgesture", 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := models.Build("lenet", models.Options{Width: 0.5, Classes: data.Classes(), InShape: data.InShape()})
	if err != nil {
		t.Fatal(err)
	}
	input, _ := data.SpikeBatch(dataset.Train, []int{0, 1}, T)
	return Run(net, input, nil), len(net.Layers)
}

func TestRunTraceShapes(t *testing.T) {
	const T = 12
	tr, nLayers := traceFixture(t, T)
	if len(tr.Scores) != T || len(tr.LayerRates) != T {
		t.Fatalf("trace length %d/%d, want %d", len(tr.Scores), len(tr.LayerRates), T)
	}
	if len(tr.LayerNames) != nLayers {
		t.Fatalf("layer names %d, want %d", len(tr.LayerNames), nLayers)
	}
	for t2, row := range tr.LayerRates {
		if len(row) != nLayers {
			t.Fatalf("rates row %d has %d cols", t2, len(row))
		}
		for _, r := range row {
			if r < 0 || r > 1 {
				t.Fatalf("firing rate %v outside [0,1]", r)
			}
		}
	}
	for _, s := range tr.Scores {
		if s < 0 {
			t.Fatalf("negative SAM score %v", s)
		}
	}
}

func TestPreviewSkipsMatchesEngine(t *testing.T) {
	// The preview's skip fraction must approximate p and never skip the
	// final timestep.
	const T = 18
	tr, _ := traceFixture(t, T)
	pre := tr.PreviewSkips(2, 40)
	if pre.SkipCount == 0 {
		t.Fatal("preview skipped nothing at p=40")
	}
	if pre.Skipped[T-1] {
		t.Fatal("preview must never skip the final step")
	}
	if pre.Skipped[0] {
		t.Fatal("checkpoint step 0 cannot be skipped")
	}
	frac := float64(pre.SkipCount) / float64(T)
	if frac > 0.5 {
		t.Fatalf("skip fraction %v far exceeds p=40%%", frac)
	}

	// On the benchmark's event configuration most of a segment ties at
	// score 0, and the preview must count what the engine then skips for the
	// same batch: its quota (65 or 66 of 120), not the 21 a threshold drops.
	const evT, evC, evP = 120, 6, 59
	data, err := dataset.Open("dvsgesture", 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := models.Build("lenet", models.Options{Width: 0.5, Classes: data.Classes(), InShape: data.InShape()})
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{0, 1, 2, 3}
	input, _ := data.SpikeBatch(dataset.Train, idx, evT)
	pre = Run(net, input, nil).PreviewSkips(evC, evP)
	trn, err := core.NewTrainer(net, data, core.Skipper{C: evC, P: evP}, core.Config{T: evT, Batch: len(idx)})
	if err != nil {
		t.Fatal(err)
	}
	defer trn.Close()
	st, err := trn.TrainBatchIndices(dataset.Train, idx)
	if err != nil {
		t.Fatal(err)
	}
	if pre.SkipCount != st.SkippedSteps || (pre.SkipCount != 65 && pre.SkipCount != 66) {
		t.Fatalf("preview skips %d steps, the engine %d, want both 65 or 66", pre.SkipCount, st.SkippedSteps)
	}
}

func TestMeanRateAndStats(t *testing.T) {
	tr, n := traceFixture(t, 10)
	for l := 0; l < n; l++ {
		r := tr.MeanRate(l)
		if r < 0 || r > 1 {
			t.Fatalf("mean rate %v", r)
		}
	}
	min, mean, max := tr.ActivityStats()
	if min > mean || mean > max {
		t.Fatalf("stats ordering broken: %v %v %v", min, mean, max)
	}
}

func TestWriteCSV(t *testing.T) {
	tr, n := traceFixture(t, 8)
	pre := tr.PreviewSkips(2, 30)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf, &pre); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 9 { // header + 8 rows
		t.Fatalf("CSV rows %d, want 9", len(lines))
	}
	if !strings.HasPrefix(lines[0], "t,sam_score,skipped,rate_") {
		t.Fatalf("header %q", lines[0])
	}
	if cols := strings.Count(lines[1], ","); cols != 2+n {
		t.Fatalf("row has %d commas, want %d", cols, 2+n)
	}
}

func TestSparkline(t *testing.T) {
	tr, _ := traceFixture(t, 10)
	s := tr.Sparkline()
	if len([]rune(s)) != 10 {
		t.Fatalf("sparkline length %d, want 10", len([]rune(s)))
	}
	empty := &Trace{}
	if empty.Sparkline() != "" {
		t.Fatal("empty trace should render empty sparkline")
	}
}

func TestRunWithExplicitMetric(t *testing.T) {
	data, err := dataset.Open("nmnist", 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := models.Build("customnet", models.Options{Width: 0.5, Classes: data.Classes(), InShape: data.InShape()})
	if err != nil {
		t.Fatal(err)
	}
	input, _ := data.SpikeBatch(dataset.Train, []int{0}, 6)
	tr := Run(net, input, core.MembraneL2{})
	for _, s := range tr.Scores {
		if s < 0 {
			t.Fatalf("membrane L2 score %v", s)
		}
	}
}

func TestEnergyReport(t *testing.T) {
	data, err := dataset.Open("dvsgesture", 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := models.Build("customnet", models.Options{Width: 0.5, Classes: data.Classes(), InShape: data.InShape()})
	if err != nil {
		t.Fatal(err)
	}
	input, _ := data.SpikeBatch(dataset.Train, []int{0, 1}, 10)
	rep := Energy(net, input, EnergyModel{})
	if rep.Synops <= 0 || rep.DenseMacs <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if rep.Synops >= rep.DenseMacs {
		t.Fatalf("sparse synops (%v) should be far below dense MACs (%v)", rep.Synops, rep.DenseMacs)
	}
	if rep.Ratio() <= 1 {
		t.Fatalf("SNN energy advantage %v should exceed 1x on sparse event data", rep.Ratio())
	}
	var perLayer float64
	for _, v := range rep.PerLayerSynops {
		perLayer += v
	}
	if perLayer != rep.Synops {
		t.Fatalf("per-layer synops %v do not sum to total %v", perLayer, rep.Synops)
	}
	if rep.String() == "" {
		t.Fatal("String empty")
	}
}

func TestEnergyEmptyInput(t *testing.T) {
	data, _ := dataset.Open("cifar10", 1)
	net, err := models.Build("customnet", models.Options{Width: 0.5, Classes: data.Classes(), InShape: data.InShape()})
	if err != nil {
		t.Fatal(err)
	}
	rep := Energy(net, nil, EnergyModel{})
	if rep.Synops != 0 || rep.Ratio() != 0 {
		t.Fatalf("empty input should cost nothing: %+v", rep)
	}
}
