package core

import (
	"fmt"
	"time"

	"skipper/internal/layers"
	"skipper/internal/tensor"
)

// TBPTT is truncated backpropagation through time (paper Sec. III-C), the
// standard RNN memory-reduction baseline the paper compares against: the
// unroll is cut into windows of trW steps; a loss is computed at the end of
// each window and back-propagated only within it; membrane state carries
// across windows but gradients do not; the window's graph is then freed.
// Memory is O(trW); temporal credit assignment is limited to the window,
// which is where its accuracy loss on deep networks comes from.
type TBPTT struct {
	// Window is trW, the truncation window length.
	Window int
}

// Name implements Strategy.
func (tb TBPTT) Name() string { return fmt.Sprintf("tbptt(trW=%d)", tb.Window) }

// Validate implements Strategy.
func (tb TBPTT) Validate(cfg Config, net *layers.Network) error {
	if cfg.LossWindow > 1 {
		return fmt.Errorf("core: tbptt already applies a loss per truncation window; LossWindow is not supported")
	}
	if tb.Window < 1 || tb.Window > cfg.T {
		return fmt.Errorf("core: tbptt window %d outside [1, T=%d]", tb.Window, cfg.T)
	}
	if tb.Window <= net.StatefulCount() {
		return fmt.Errorf("core: tbptt window %d must exceed L_n = %d", tb.Window, net.StatefulCount())
	}
	return nil
}

// TrainBatch implements Strategy.
func (tb TBPTT) TrainBatch(tr *Trainer, input []*tensor.Tensor, labels []int) (StepStats, error) {
	T := tr.Cfg.T
	st := StepStats{N: len(labels)}
	p := tr.newPass(input, &st)
	defer p.rs.dropAll()

	scratch, err := tr.deltaScratch(len(labels))
	if err != nil {
		return st, fmt.Errorf("core: tbptt scratch: %w", err)
	}
	defer scratch.Release()

	outIdx := len(tr.Net.Layers) - 1
	var carry []*layers.LayerState
	var lastLogits *tensor.Tensor
	for w0 := 0; w0 < T; w0 += tb.Window {
		w1 := min(w0+tb.Window, T)
		window := stepRange(w0, w1)

		// Forward through the window, storing its records.
		fwd, quiet := time.Now(), st.QuietSteps
		states, err := p.forward(window, carry)
		if err != nil {
			return st, fmt.Errorf("core: tbptt forward %w", err)
		}
		st.ForwardSteps += len(window)
		tr.phaseDone(&st.ForwardTime, "forward", fwd, p.quietSince(quiet))

		// Loss at the window boundary; gradients summed over windows.
		logits := tr.Net.Logits(states)
		loss, _, dlogits := lossGrad(logits, labels, tr.lossDenom)
		st.Loss += loss / float64((T+tb.Window-1)/tb.Window)
		lastLogits = logits

		// Backward within the window only; the computation graph (records)
		// is discarded afterwards and δ is NOT carried across the boundary.
		bwd := time.Now()
		p.deltas = nil
		if err := p.backward(window, w1-1, func(t int) map[int]*tensor.Tensor {
			if t == w1-1 {
				return map[int]*tensor.Tensor{outIdx: dlogits}
			}
			return nil
		}); err != nil {
			return st, fmt.Errorf("core: tbptt backward %w", err)
		}
		// The boundary record stays alive only to seed the next window's state
		// carry (detached: no gradient flows back into it); the previous
		// window's, if there was one, goes.
		carry = states
		p.rs.drop(w0 - 1)
		tr.phaseDone(&st.BackwardTime, "backward", bwd)
	}
	// Accuracy is judged on the final window's logits, the network's output
	// after the full T steps.
	_, correct := tensor.CrossEntropy(lastLogits, labels, nil)
	st.Correct = correct
	return st, nil
}
