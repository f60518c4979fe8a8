package analysis

import (
	"fmt"

	"skipper/internal/layers"
	"skipper/internal/tensor"
)

// EnergyModel estimates the event-driven inference cost of a trained SNN on
// neuromorphic hardware, where energy is dominated by synaptic operations
// (one per spike per outgoing synapse) rather than by dense MACs — the
// deployment argument of the paper's introduction. Values are joules per
// operation; zeros select the commonly cited 45 nm CMOS estimates
// (Han et al.): 0.9 pJ per synop (32-bit add) and 4.6 pJ per dense MAC.
type EnergyModel struct {
	SynopJ float64
	MacJ   float64
}

func (m EnergyModel) synop() float64 {
	if m.SynopJ == 0 {
		return 0.9e-12
	}
	return m.SynopJ
}

func (m EnergyModel) mac() float64 {
	if m.MacJ == 0 {
		return 4.6e-12
	}
	return m.MacJ
}

// EnergyReport summarises one unrolled run.
type EnergyReport struct {
	// Synops is the total synaptic operations the spike train triggers.
	Synops float64
	// DenseMacs is what a non-spiking network of the same topology would
	// execute over the same horizon (the ANN equivalent).
	DenseMacs float64
	// SNNJoules and ANNJoules apply the energy model to both.
	SNNJoules, ANNJoules float64
	// PerLayerSynops breaks Synops down by layer.
	PerLayerSynops []float64
}

// Ratio returns the SNN's energy advantage factor (ANN/SNN); 0 when the
// SNN consumed nothing.
func (r EnergyReport) Ratio() float64 {
	if r.SNNJoules == 0 {
		return 0
	}
	return r.ANNJoules / r.SNNJoules
}

// fanout returns a layer's outgoing synapses per input spike and its dense
// MACs per timestep (for one sample), or (0,0) for stateless layers.
func fanout(l layers.Layer, batch int) (synPerSpike float64, densePerStep float64) {
	switch v := l.(type) {
	case *layers.SpikingConv2D:
		// Each input spike touches OutChannels·KH·KW synapses (interior).
		k := float64(v.Spec.OutChannels * v.Spec.KernelH * v.Spec.KernelW)
		out := v.OutShape()
		dense := float64(v.Spec.InChannels*v.Spec.KernelH*v.Spec.KernelW) *
			float64(out[0]*out[1]*out[2]) * float64(batch)
		return k, dense
	case *layers.SpikingLinear:
		return float64(v.Out), float64(v.Out) * float64(batch) * float64(inFeatures(v))
	case *layers.RecurrentSpikingLinear:
		return float64(v.Out), float64(v.Out) * float64(batch) * float64(inFeaturesRec(v))
	default:
		return 0, 0
	}
}

// inFeatures reads the built input width of a linear layer via its weight.
func inFeatures(l *layers.SpikingLinear) int {
	ps := l.Params()
	return ps[0].W.Dim(1)
}

func inFeaturesRec(l *layers.RecurrentSpikingLinear) int {
	ps := l.Params()
	return ps[0].W.Dim(1)
}

// Energy unrolls the network over the input spike train and counts
// event-driven synaptic operations: each layer consumes the spikes arriving
// at its input and multiplies by its fanout. The dense-MAC equivalent
// accumulates every layer's full per-step cost.
func Energy(net *layers.Network, input []*tensor.Tensor, model EnergyModel) EnergyReport {
	rep := EnergyReport{PerLayerSynops: make([]float64, len(net.Layers))}
	if len(input) == 0 {
		return rep
	}
	batch := input[0].Dim(0)
	var states []*layers.LayerState
	for _, x := range input {
		inSpikes := float64(tensor.CountNonZero(x))
		prev := states
		states = net.ForwardStep(x, prev)
		for i, l := range net.Layers {
			syn, dense := fanout(l, batch)
			if syn > 0 {
				rep.Synops += inSpikes * syn
				rep.PerLayerSynops[i] += inSpikes * syn
				rep.DenseMacs += dense
			}
			// The next layer consumes this layer's output spikes.
			inSpikes = float64(tensor.CountNonZero(net.Output(i, states[i])))
		}
	}
	rep.SNNJoules = rep.Synops * model.synop()
	rep.ANNJoules = rep.DenseMacs * model.mac()
	return rep
}

// String renders the headline numbers.
func (r EnergyReport) String() string {
	return fmt.Sprintf("synops %.3g (%.3g J) vs dense MACs %.3g (%.3g J) — %.1fx advantage",
		r.Synops, r.SNNJoules, r.DenseMacs, r.ANNJoules, r.Ratio())
}
