package core

import (
	"fmt"
	"time"

	"skipper/internal/layers"
	"skipper/internal/mem"
	"skipper/internal/tensor"
)

// TBPTTLBP reproduces the comparison system of Guo et al. [28]:
// temporally-truncated BPTT combined with locally-supervised blocks. Local
// linear classifiers are attached at the layer indices in LocalAt; each
// integrates its layer's spikes over a truncation window and contributes a
// local cross-entropy loss. Gradients are local: error from a block's
// classifier (or, for the top block, the network loss) does not propagate
// below the block's attachment boundary. Memory is O(trW) plus the small
// auxiliary classifier weights; like TBPTT, temporal credit is limited to
// the window, which is why its accuracy does not improve with more
// timesteps (paper Sec. VII-I).
type TBPTTLBP struct {
	// Window is the truncation window trW.
	Window int
	// LocalAt are indices into net.Layers where local classifiers attach
	// (the paper's best configuration attaches them at layers 4 and 8 of
	// AlexNet).
	LocalAt []int
	// AuxLR is the SGD rate for the auxiliary classifiers; 0 means 0.01.
	AuxLR float32

	aux      map[int]*auxClassifier
	auxBlock *mem.Block
}

type auxClassifier struct {
	w, g *tensor.Tensor
	// shape is the site's output shape.
	shape []int
}

// Name implements Strategy.
func (lb *TBPTTLBP) Name() string {
	return fmt.Sprintf("tbptt-lbp(trW=%d,local=%v)", lb.Window, lb.LocalAt)
}

// Validate implements Strategy.
func (lb *TBPTTLBP) Validate(cfg Config, net *layers.Network) error {
	if cfg.LossWindow > 1 {
		return fmt.Errorf("core: tbptt-lbp already applies per-window losses; LossWindow is not supported")
	}
	if lb.Window < 1 || lb.Window > cfg.T {
		return fmt.Errorf("core: tbptt-lbp window %d outside [1, T=%d]", lb.Window, cfg.T)
	}
	for _, i := range lb.LocalAt {
		if i < 0 || i >= len(net.Layers)-1 {
			return fmt.Errorf("core: tbptt-lbp local classifier index %d out of range (%d layers)", i, len(net.Layers))
		}
	}
	return nil
}

func (lb *TBPTTLBP) auxLR() float32 {
	if lb.AuxLR == 0 {
		return 0.01
	}
	return lb.AuxLR
}

// ensureAux lazily builds the auxiliary classifiers once the feature shapes
// are known, charging their weights to the device.
func (lb *TBPTTLBP) ensureAux(tr *Trainer, states []*layers.LayerState, classes int) error {
	if lb.aux != nil {
		return nil
	}
	lb.aux = map[int]*auxClassifier{}
	rng := tensor.NewRNG(tensor.DeriveSeed(tr.Cfg.Seed, 0xA0C))
	var bytes int64
	for _, site := range lb.LocalAt {
		o := tr.Net.Output(site, states[site])
		features := o.Len() / o.Dim(0)
		w := tensor.New(classes, features)
		rng.KaimingLinear(w)
		lb.aux[site] = &auxClassifier{w: w, g: tensor.New(classes, features), shape: o.Shape()}
		bytes += 2 * w.Bytes()
	}
	blk, err := tr.Dev.Alloc(mem.Weights, bytes)
	if err != nil {
		return fmt.Errorf("core: tbptt-lbp aux weights: %w", err)
	}
	lb.auxBlock = blk
	return nil
}

// Close releases the auxiliary classifier memory.
func (lb *TBPTTLBP) Close() {
	lb.auxBlock.Release()
	lb.auxBlock = nil
}

// TrainBatch implements Strategy.
func (lb *TBPTTLBP) TrainBatch(tr *Trainer, input []*tensor.Tensor, labels []int) (StepStats, error) {
	T := tr.Cfg.T
	st := StepStats{N: len(labels)}
	p := tr.newPass(input, &st)
	defer p.rs.dropAll()

	scratch, err := tr.deltaScratch(len(labels))
	if err != nil {
		return st, fmt.Errorf("core: tbptt-lbp scratch: %w", err)
	}
	defer scratch.Release()

	classes := tr.Net.OutShape()[0]
	outIdx := len(tr.Net.Layers) - 1
	// Local supervision: the gradient from the block above is severed at each
	// attachment boundary, so that layer — and everything below it — is
	// driven purely by its block's own classifier injection.
	p.cut = map[int]bool{}
	for _, i := range lb.LocalAt {
		p.cut[i] = true
	}

	numWindows := (T + lb.Window - 1) / lb.Window
	var carry []*layers.LayerState
	var lastLogits *tensor.Tensor
	for w0 := 0; w0 < T; w0 += lb.Window {
		w1 := min(w0+lb.Window, T)
		window := stepRange(w0, w1)

		// Forward through the window, then integrate the aux potentials over
		// its stored spikes.
		fwd, quiet := time.Now(), st.QuietSteps
		states, err := p.forward(window, carry)
		if err != nil {
			return st, fmt.Errorf("core: tbptt-lbp forward %w", err)
		}
		st.ForwardSteps += len(window)
		if err := lb.ensureAux(tr, states, classes); err != nil {
			return st, err
		}
		// The classifiers read a site's spikes off its records a step at a
		// time.
		spikes, err := p.chargeSpikes(1)
		if err != nil {
			return st, fmt.Errorf("core: tbptt-lbp spikes %w", err)
		}
		auxU := map[int]*tensor.Tensor{}
		for site, ac := range lb.aux {
			auxU[site] = tensor.New(len(labels), classes)
			for _, t := range window {
				o := tr.Net.Output(site, p.rs.get(t)[site])
				flat := o.Reshape(o.Dim(0), o.Len()/o.Dim(0))
				tmp := tensor.New(len(labels), classes)
				tensor.MatMulTransB(tr.Net.Pool(), tmp, flat, ac.w)
				tensor.AXPY(auxU[site], 1, tmp)
			}
		}
		tr.phaseDone(&st.ForwardTime, "forward", fwd, p.quietSince(quiet))

		// Window losses: the network loss at the top plus one local loss per
		// classifier.
		logits := tr.Net.Logits(states)
		loss, _, dlogits := lossGrad(logits, labels, tr.lossDenom)
		lastLogits = logits
		injections := map[int]*tensor.Tensor{}
		for site, ac := range lb.aux {
			auxLoss, _, daux := lossGrad(auxU[site], labels, tr.lossDenom)
			loss += auxLoss
			// ∂L/∂o_t at the site is dauxW for every t in the window.
			inj := tensor.New(len(labels), ac.w.Dim(1))
			tensor.MatMul(tr.Net.Pool(), inj, daux, ac.w)
			injections[site] = inj.Reshape(ac.shape...)
			// ∂W_aux += Σ_t dauxᵀ·o_t.
			for _, t := range window {
				ot := tr.Net.Output(site, p.rs.get(t)[site])
				flat := ot.Reshape(ot.Dim(0), ot.Len()/ot.Dim(0))
				tensor.MatMulTransAAcc(tr.Net.Pool(), ac.g, daux, flat)
			}
		}
		spikes()
		st.Loss += loss / float64(numWindows)

		// Backward within the window only: every step takes the local
		// injections, the window's last step also the network loss.
		bwd := time.Now()
		p.deltas = nil
		if err := p.backward(window, w1-1, func(t int) map[int]*tensor.Tensor {
			if t != w1-1 {
				return injections
			}
			top := map[int]*tensor.Tensor{outIdx: dlogits}
			for site, inj := range injections {
				top[site] = inj
			}
			return top
		}); err != nil {
			return st, fmt.Errorf("core: tbptt-lbp backward %w", err)
		}
		carry = states
		p.rs.drop(w0 - 1)
		tr.phaseDone(&st.BackwardTime, "backward", bwd)
	}

	// Auxiliary classifiers update locally with plain SGD.
	for _, ac := range lb.aux {
		tensor.AXPY(ac.w, -lb.auxLR(), ac.g)
		ac.g.Zero()
	}
	_, correct := tensor.CrossEntropy(lastLogits, labels, nil)
	st.Correct = correct
	return st, nil
}
