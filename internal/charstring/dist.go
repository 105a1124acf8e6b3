package charstring

import (
	"fmt"
	"math/rand"
)

// Params collects the (ǫ, ph)-Bernoulli condition of Definition 7.
//
// Given ǫ ∈ (0,1) and ph ∈ [0, (1+ǫ)/2], the per-slot law is
//
//	pA = (1−ǫ)/2,   pH = 1 − pA − ph,   Pr[w_t = σ] = pσ i.i.d.
//
// The zero value is not usable; construct with NewParams or set the three
// probabilities directly via Probabilities.
type Params struct {
	Epsilon float64 // honest advantage ǫ: pA = (1−ǫ)/2
	Ph      float64 // probability of a uniquely honest slot
}

// NewParams validates and returns the (ǫ, ph)-Bernoulli parameters.
func NewParams(epsilon, ph float64) (Params, error) {
	if epsilon <= 0 || epsilon >= 1 {
		return Params{}, fmt.Errorf("charstring: epsilon %v outside (0,1)", epsilon)
	}
	if ph < 0 || ph > (1+epsilon)/2 {
		return Params{}, fmt.Errorf("charstring: ph %v outside [0, (1+ǫ)/2] = [0, %v]", ph, (1+epsilon)/2)
	}
	return Params{Epsilon: epsilon, Ph: ph}, nil
}

// MustParams is NewParams that panics on error, for tests and examples.
func MustParams(epsilon, ph float64) Params {
	p, err := NewParams(epsilon, ph)
	if err != nil {
		panic(err)
	}
	return p
}

// ParamsFromAlpha builds Params from the Table-1 parameterization: the
// adversarial slot probability α = pA and the uniquely honest probability
// ph (so that pH = 1 − α − ph).
func ParamsFromAlpha(alpha, ph float64) (Params, error) {
	if alpha <= 0 || alpha >= 0.5 {
		return Params{}, fmt.Errorf("charstring: alpha %v outside (0, 0.5)", alpha)
	}
	return NewParams(1-2*alpha, ph)
}

// PA returns pA = (1−ǫ)/2.
func (p Params) PA() float64 { return (1 - p.Epsilon) / 2 }

// PH returns pH = 1 − pA − ph.
func (p Params) PH() float64 { return 1 - p.PA() - p.Ph }

// Probabilities returns (ph, pH, pA).
func (p Params) Probabilities() (ph, pH, pA float64) {
	return p.Ph, p.PH(), p.PA()
}

// Q returns q = 1 − pA = (1+ǫ)/2, the per-slot probability of an honest slot.
func (p Params) Q() float64 { return (1 + p.Epsilon) / 2 }

// Beta returns β = (1−ǫ)/(1+ǫ) = pA/q, the geometric ratio of the dominating
// stationary reach law X∞ (Eq. 9).
func (p Params) Beta() float64 { return (1 - p.Epsilon) / (1 + p.Epsilon) }

// Sample draws a length-T characteristic string satisfying the
// (ǫ, ph)-Bernoulli condition using the supplied source.
func (p Params) Sample(rng *rand.Rand, T int) String {
	w := make(String, T)
	pA := p.PA()
	pAh := pA + p.Ph
	for t := range w {
		u := rng.Float64()
		switch {
		case u < pA:
			w[t] = Adversarial
		case u < pAh:
			w[t] = UniqueHonest
		default:
			w[t] = MultiHonest
		}
	}
	return w
}

// threshold converts a probability into a raw-uint64 cumulative cut: a
// uniform u ∈ [0, 2⁶⁴) satisfies u < threshold(p) with probability p up to
// one part in 2⁶⁴ (float64 carries 53 significant bits, so the cut is exact
// at the resolution of the probability itself).
func threshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	f := p * 0x1p64
	if f >= 0x1p64 {
		return ^uint64(0)
	}
	return uint64(f)
}

// Thresholds is the raw-uint64 form of the synchronous per-slot law, the
// sampler of the streaming Monte-Carlo core: one Uint64 draw and at most
// two compares per symbol where Sample pays a rand.Float64 call. The
// category boundaries are the same cumulative cuts as Sample's
// (A | h | H in that order), so the induced law is identical.
type Thresholds struct {
	a  uint64 // u < a  → A
	ah uint64 // u < ah → h; otherwise H
}

// Thresholds returns the raw-uint64 sampling form of the per-slot law.
func (p Params) Thresholds() Thresholds {
	pA := p.PA()
	return Thresholds{a: threshold(pA), ah: threshold(pA + p.Ph)}
}

// NewThresholds builds a threshold table for an arbitrary synchronous
// per-slot law (pA, ph, 1−pA−ph) without the Params range checks. It
// exists for proposal laws that step outside the (ǫ, ph)-Bernoulli cone —
// chiefly the exponentially tilted laws of package rare, whose
// variance-optimal tilt pushes pA to ½ and beyond. The cumulative cuts
// are the same (A | h | H) order as Params.Thresholds, so
// NewThresholds(p.PA(), p.Ph) is bit-identical to p.Thresholds().
func NewThresholds(pA, ph float64) Thresholds {
	return Thresholds{a: threshold(pA), ah: threshold(pA + ph)}
}

// Symbol maps one raw uniform draw to a symbol of the law.
func (t Thresholds) Symbol(u uint64) Symbol {
	if u < t.a {
		return Adversarial
	}
	if u < t.ah {
		return UniqueHonest
	}
	return MultiHonest
}

// SemiSyncParams is the semi-synchronous per-slot law of Theorem 7:
// independent symbols over {⊥, h, H, A} with Pr[⊥] = 1 − f.
type SemiSyncParams struct {
	PEmpty float64 // p⊥ = 1 − f
	Ph     float64 // uniquely honest
	PH     float64 // multiply honest
	PA     float64 // adversarial
}

// NewSemiSyncParams validates the four probabilities (they must be
// non-negative and sum to 1 within a small tolerance).
func NewSemiSyncParams(pEmpty, ph, pH, pA float64) (SemiSyncParams, error) {
	s := SemiSyncParams{PEmpty: pEmpty, Ph: ph, PH: pH, PA: pA}
	sum := pEmpty + ph + pH + pA
	if pEmpty < 0 || ph < 0 || pH < 0 || pA < 0 || sum < 1-1e-9 || sum > 1+1e-9 {
		return SemiSyncParams{}, fmt.Errorf("charstring: invalid semi-sync law (⊥=%v h=%v H=%v A=%v, sum=%v)", pEmpty, ph, pH, pA, sum)
	}
	return s, nil
}

// ActiveRate returns f = 1 − p⊥, the per-slot probability that the slot has
// any leader at all.
func (s SemiSyncParams) ActiveRate() float64 { return 1 - s.PEmpty }

// Sample draws a length-T semi-synchronous characteristic string.
func (s SemiSyncParams) Sample(rng *rand.Rand, T int) String {
	w := make(String, T)
	for t := range w {
		u := rng.Float64()
		switch {
		case u < s.PEmpty:
			w[t] = Empty
		case u < s.PEmpty+s.PA:
			w[t] = Adversarial
		case u < s.PEmpty+s.PA+s.Ph:
			w[t] = UniqueHonest
		default:
			w[t] = MultiHonest
		}
	}
	return w
}

// SemiSyncThresholds is the raw-uint64 form of the semi-synchronous
// per-slot law (⊥ | A | h | H, the same cumulative order as
// SemiSyncParams.Sample).
type SemiSyncThresholds struct {
	e   uint64 // u < e   → ⊥
	ea  uint64 // u < ea  → A
	eah uint64 // u < eah → h; otherwise H
}

// Thresholds returns the raw-uint64 sampling form of the semi-sync law.
func (s SemiSyncParams) Thresholds() SemiSyncThresholds {
	return SemiSyncThresholds{
		e:   threshold(s.PEmpty),
		ea:  threshold(s.PEmpty + s.PA),
		eah: threshold(s.PEmpty + s.PA + s.Ph),
	}
}

// NewSemiSyncThresholds builds a threshold table for an arbitrary
// quadrivalent per-slot law (p⊥, pA, ph, 1−p⊥−pA−ph) without the
// SemiSyncParams validation — the semi-synchronous counterpart of
// NewThresholds, used by the tilted proposal laws of package rare. The
// cuts follow the same (⊥ | A | h | H) cumulative order as
// SemiSyncParams.Thresholds.
func NewSemiSyncThresholds(pEmpty, pA, ph float64) SemiSyncThresholds {
	return SemiSyncThresholds{
		e:   threshold(pEmpty),
		ea:  threshold(pEmpty + pA),
		eah: threshold(pEmpty + pA + ph),
	}
}

// Symbol maps one raw uniform draw to a symbol of the law.
func (t SemiSyncThresholds) Symbol(u uint64) Symbol {
	if u < t.e {
		return Empty
	}
	if u < t.ea {
		return Adversarial
	}
	if u < t.eah {
		return UniqueHonest
	}
	return MultiHonest
}

// AdaptiveSampler draws characteristic strings whose symbols need not be
// independent: at each slot the conditional adversarial probability may
// depend on the history but is bounded by pA, and conditioned on the slot
// being honest the probability of unique honesty is at least ph/(1−pA′)
// for the realized adversarial mass pA′.
//
// Such martingale-type laws are stochastically dominated by the
// (ǫ, ph)-Bernoulli law (Definition 6), so every bound proved for the
// Bernoulli law transfers (Theorem 1, second part). AdaptiveSampler exists
// to exercise exactly that transfer in tests: Decide is an arbitrary
// caller-supplied policy.
type AdaptiveSampler struct {
	Base Params
	// Decide returns the conditional law for slot t given the history
	// prefix. The returned law must be dominated by Base's per-slot law:
	// pA′ ≤ pA and pA′ + pH′ ≤ pA + pH. Decide may be nil, in which case
	// the base law is used unchanged.
	Decide func(prefix String) (ph, pH, pA float64)
}

// Sample draws a length-T string under the adaptive law.
func (a AdaptiveSampler) Sample(rng *rand.Rand, T int) String {
	w := make(String, 0, T)
	for t := 0; t < T; t++ {
		ph, pH, pA := a.Base.Probabilities()
		if a.Decide != nil {
			ph, pH, pA = a.Decide(w)
		}
		u := rng.Float64()
		switch {
		case u < pA:
			w = append(w, Adversarial)
		case u < pA+ph:
			w = append(w, UniqueHonest)
		default:
			_ = pH
			w = append(w, MultiHonest)
		}
	}
	return w
}
