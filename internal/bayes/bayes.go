// Package bayes implements the conjugate Bayesian machinery that LPVS
// uses to learn each device's power-reduction ratio gamma_n (paper
// section V-D).
//
// Before a transformed video has ever been played on a device, the edge
// scheduler does not know how much display power the transform will
// actually save on that device. The paper resolves this circular
// dependency by treating gamma_n as a random variable with a Gaussian
// prior N(mu, sigma^2). After every time slot in which the device played
// transformed chunks, the observed mean reduction ratio Delta_n updates
// the distribution through the Gaussian-Gaussian conjugate rule, and the
// scheduler plans the next slot with the posterior expectation restricted
// to the physically plausible interval [GammaL, GammaU] drawn from the
// literature survey in Table I of the paper.
package bayes

import (
	"errors"
	"fmt"
	"math"

	"lpvs/internal/stats"
)

// Paper defaults: Table I reports an average saving range of 13%-49%
// across the surveyed transform strategies; section VI-B initialises the
// prior at the midpoint mu=(0.13+0.49)/2=0.31 with a deliberately vague
// sigma (sigma = 12 in the paper's implementation).
const (
	DefaultGammaL     = 0.13
	DefaultGammaU     = 0.49
	DefaultPriorMean  = (DefaultGammaL + DefaultGammaU) / 2
	DefaultPriorSigma = 12.0
	// DefaultObsSigma models the chunk-to-chunk noise of the realised
	// reduction ratio within one slot; it controls how fast the posterior
	// concentrates.
	DefaultObsSigma = 0.05
)

// ErrNoObservation is returned when an update is attempted with an
// observation outside the valid [0, 1) reduction-ratio range.
var ErrNoObservation = errors.New("bayes: observation outside (0, 1)")

// GammaEstimator tracks the posterior of one device's power-reduction
// ratio. The zero value is not usable; construct with NewGammaEstimator.
type GammaEstimator struct {
	mean     float64 // posterior mean of the (untruncated) Gaussian
	sigma    float64 // posterior standard deviation
	obsSigma float64 // observation noise standard deviation
	lo, hi   float64 // physical support [GammaL, GammaU]
	nObs     int     // number of observations folded in
}

// NewGammaEstimator returns an estimator carrying the paper's default
// prior N(0.31, 12^2) truncated to [0.13, 0.49].
func NewGammaEstimator() *GammaEstimator {
	return &GammaEstimator{
		mean:     DefaultPriorMean,
		sigma:    DefaultPriorSigma,
		obsSigma: DefaultObsSigma,
		lo:       DefaultGammaL,
		hi:       DefaultGammaU,
	}
}

// Observe folds the realised mean reduction ratio of one slot into the
// posterior using the conjugate Gaussian update
//
//	sigma'^2 = (1/sigma^2 + 1/obsSigma^2)^-1
//	mean'    = sigma'^2 * (mean/sigma^2 + obs/obsSigma^2)
//
// It rejects observations outside (0, 1): a reduction ratio of zero
// means the transform never ran, and one would mean the display became
// free to drive.
func (e *GammaEstimator) Observe(obs float64) error {
	if obs <= 0 || obs >= 1 || math.IsNaN(obs) {
		return fmt.Errorf("%w: %v", ErrNoObservation, obs)
	}
	priorPrec := 1 / (e.sigma * e.sigma)
	obsPrec := 1 / (e.obsSigma * e.obsSigma)
	post := 1 / (priorPrec + obsPrec)
	e.mean = post * (float64(e.mean*priorPrec) + float64(obs*obsPrec))
	e.sigma = math.Sqrt(post)
	e.nObs++
	return nil
}

// Gamma returns the scheduler-facing point estimate: the posterior
// expectation truncated to [lo, hi], i.e. Eq. (19) of the paper.
func (e *GammaEstimator) Gamma() float64 {
	return stats.TruncNormalMean(e.mean, e.sigma, e.lo, e.hi)
}

// Sigma returns the posterior standard deviation.
func (e *GammaEstimator) Sigma() float64 { return e.sigma }

// Observations returns the number of updates applied so far.
func (e *GammaEstimator) Observations() int { return e.nObs }

// Uncertainty returns the standard deviation of the truncated posterior,
// a convenient measure of how much more evidence is needed.
func (e *GammaEstimator) Uncertainty() float64 {
	return math.Sqrt(stats.TruncNormalVar(e.mean, e.sigma, e.lo, e.hi))
}

// Snapshot is a view of one estimator's posterior: cheap to aggregate
// across a cluster for metrics exposition, and — because it carries
// every persistent parameter — sufficient to rebuild the estimator
// bit-for-bit via FromSnapshot (durable state, DESIGN.md §14).
type Snapshot struct {
	// Mean and Sigma are the untruncated posterior parameters.
	Mean  float64
	Sigma float64
	// Observations counts the conjugate updates folded in so far.
	Observations int
	// ObsSigma is the observation noise level the updates use.
	ObsSigma float64
	// Lo and Hi are the physical support bounds of the ratio.
	Lo, Hi float64
}

// Snapshot captures the estimator's current posterior state.
func (e *GammaEstimator) Snapshot() Snapshot {
	return Snapshot{
		Mean:         e.mean,
		Sigma:        e.sigma,
		Observations: e.nObs,
		ObsSigma:     e.obsSigma,
		Lo:           e.lo,
		Hi:           e.hi,
	}
}

// FromSnapshot rebuilds an estimator from a captured posterior — the
// restore half of the durable-state path (DESIGN.md §14). The five
// persistent parameters (Mean, Sigma, ObsSigma, Lo, Hi) plus the
// observation count determine the estimator exactly.
// Snapshots that could not have come from a valid estimator are
// rejected so a corrupted restore fails closed instead of poisoning
// future decisions.
func FromSnapshot(s Snapshot) (*GammaEstimator, error) {
	if math.IsNaN(s.Mean) || math.IsInf(s.Mean, 0) {
		return nil, fmt.Errorf("bayes: snapshot mean %v", s.Mean)
	}
	if !(s.Sigma > 0) || math.IsInf(s.Sigma, 0) {
		return nil, fmt.Errorf("bayes: snapshot sigma %v", s.Sigma)
	}
	if !(s.ObsSigma > 0) || math.IsInf(s.ObsSigma, 0) {
		return nil, fmt.Errorf("bayes: snapshot observation sigma %v", s.ObsSigma)
	}
	if math.IsNaN(s.Lo) || math.IsInf(s.Lo, 0) || math.IsNaN(s.Hi) || math.IsInf(s.Hi, 0) || s.Lo >= s.Hi {
		return nil, fmt.Errorf("bayes: snapshot bounds [%v, %v]", s.Lo, s.Hi)
	}
	if s.Observations < 0 {
		return nil, fmt.Errorf("bayes: snapshot observation count %d", s.Observations)
	}
	return &GammaEstimator{
		mean:     s.Mean,
		sigma:    s.Sigma,
		obsSigma: s.ObsSigma,
		lo:       s.Lo,
		hi:       s.Hi,
		nObs:     s.Observations,
	}, nil
}
