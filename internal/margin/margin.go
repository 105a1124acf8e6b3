// Package margin implements the reach/relative-margin calculus of Section 6
// of the paper: the recurrences of Theorem 5, the UVP characterization of
// Lemma 1, and per-string settlement and common-prefix verdicts derived
// from them.
//
// For a decomposition w = xy, the relative margin µ_x(y) is the
// "second-best" reach achievable by a pair of tines disjoint over y in any
// closed fork for w. Fact 6 makes it operational: an x-balanced fork for xy
// exists iff µ_x(y) ≥ 0, i.e. slot |x|+1 can be kept unsettled exactly as
// long as the margin stays non-negative.
package margin

import (
	"fmt"

	"multihonest/internal/charstring"
)

// Rho returns ρ(w), the maximum reach over closed forks for w, via the
// Theorem 5 recurrence:
//
//	ρ(ε) = 0,  ρ(wA) = ρ(w)+1,  ρ(wb) = max(ρ(w)−1, 0) for b ∈ {h, H}.
func Rho(w charstring.String) int {
	r := 0
	for _, s := range w {
		r = StepRho(r, s)
	}
	return r
}

// RhoTrace returns ρ(w₁…w_t) for every t = 0..T, index t holding the value
// after t symbols.
func RhoTrace(w charstring.String) []int {
	out := make([]int, len(w)+1)
	for t, s := range w {
		out[t+1] = StepRho(out[t], s)
	}
	return out
}

// badSymbol reports an out-of-alphabet symbol. It is outlined (and kept
// out of line) so the hot recurrence steps stay within the compiler's
// inlining budget — they run once per symbol of every Monte-Carlo sample.
//
//go:noinline
func badSymbol(s charstring.Symbol) {
	panic(fmt.Sprintf("margin: symbol %v not in {h,H,A}", s))
}

// StepRho advances the reach ρ by one symbol — the Theorem 5 recurrence in
// online form, used by the streaming settlement verdict to absorb the
// prefix x one symbol at a time.
func StepRho(r int, s charstring.Symbol) int {
	switch s {
	case charstring.Adversarial:
		return r + 1
	case charstring.UniqueHonest, charstring.MultiHonest:
		return max(r-1, 0)
	default:
		badSymbol(s)
		return 0
	}
}

// StepMu advances the joint (ρ(xy), µ_x(y)) pair by one symbol of y,
// implementing recurrence (14) of Theorem 5:
//
//	µ_x(yA) = µ_x(y) + 1
//	µ_x(yb) = 0        if ρ(xy) > µ_x(y) = 0
//	          0        if ρ(xy) = µ_x(y) = 0 and b = H
//	          µ_x(y)−1 otherwise        (b ∈ {h, H})
//
// rho is ρ(xy) before the step; mu is µ_x(y) before the step. The returned
// values are the post-step pair.
func StepMu(rho, mu int, s charstring.Symbol) (rho2, mu2 int) {
	rho2 = StepRho(rho, s)
	switch s {
	case charstring.Adversarial:
		mu2 = mu + 1
	case charstring.UniqueHonest:
		if mu == 0 && rho > 0 {
			mu2 = 0
		} else {
			mu2 = mu - 1
		}
	case charstring.MultiHonest:
		if mu == 0 {
			mu2 = 0 // covers both ρ > 0 and the ρ = µ = 0, b = H case
		} else {
			mu2 = mu - 1
		}
	default:
		badSymbol(s)
	}
	return rho2, mu2
}

// RelativeMargin returns µ_x(y) for the decomposition w = xy with |x| =
// xlen, by running the Theorem 5 recurrence from µ_x(ε) = ρ(x).
func RelativeMargin(w charstring.String, xlen int) int {
	if xlen < 0 || xlen > len(w) {
		panic(fmt.Sprintf("margin: xlen %d outside [0,%d]", xlen, len(w)))
	}
	rho := Rho(w[:xlen])
	mu := rho
	for _, s := range w[xlen:] {
		rho, mu = StepMu(rho, mu, s)
	}
	return mu
}

// MarginTrace returns µ_x(y₁…y_t) for t = 0..|y| where x = w[:xlen] and
// y = w[xlen:]; index t holds the margin after t symbols of y.
func MarginTrace(w charstring.String, xlen int) []int {
	rho := Rho(w[:xlen])
	mu := rho
	out := make([]int, len(w)-xlen+1)
	out[0] = mu
	for t, s := range w[xlen:] {
		rho, mu = StepMu(rho, mu, s)
		out[t+1] = mu
	}
	return out
}

// HasUVP reports whether slot s has the Unique Vertex Property in w via the
// Lemma 1 characterization: w_s = h and µ_x(y) < 0 for every strict
// extension y (|y| ≥ 1) of the decomposition w = x y z with |x| = s − 1.
//
// Lemma 1 characterizes the UVP only for uniquely honest slots; HasUVP
// returns false for any other symbol at s.
func HasUVP(w charstring.String, s int) bool {
	if s < 1 || s > len(w) || w[s-1] != charstring.UniqueHonest {
		return false
	}
	xlen := s - 1
	rho := Rho(w[:xlen])
	mu := rho
	for _, sym := range w[xlen:] {
		rho, mu = StepMu(rho, mu, sym)
		if mu >= 0 {
			return false
		}
	}
	return true
}

// SettlementViolated reports whether slot s fails to be k-settled in w in
// the sense witnessed by relative margin: some prefix w[:t] with
// t ≥ s + k admits an x-balanced fork for x = w[:s−1] (Observation 2 with
// Fact 6 and Lemma 1). Equivalently, µ_x(y) ≥ 0 for some y with |y| ≥ k+1
// drawn along w.
//
// The verdict is exact for the abstract settlement game: by Lemma 1 and
// implication (1), optimal play (package adversary's A*) forces the
// violation whenever this returns true.
func SettlementViolated(w charstring.String, s, k int) bool {
	if s < 1 || s > len(w) {
		panic(fmt.Sprintf("margin: slot %d outside [1,%d]", s, len(w)))
	}
	xlen := s - 1
	rho := Rho(w[:xlen])
	mu := rho
	for t, sym := range w[xlen:] {
		rho, mu = StepMu(rho, mu, sym)
		if t+1 >= k+1 && mu >= 0 {
			return true
		}
	}
	return false
}

// ViolationAtHorizon reports whether µ_x(y) ≥ 0 for the specific
// decomposition with |x| = s−1 and |y| = k, i.e. whether slot s incurs a
// k-settlement violation at exactly horizon k. This is the quantity
// tabulated in Table 1 (Pr over w of this event, with |x| → ∞).
func ViolationAtHorizon(w charstring.String, s, k int) bool {
	if s-1+k > len(w) {
		panic(fmt.Sprintf("margin: horizon s-1+k = %d exceeds |w| = %d", s-1+k, len(w)))
	}
	return RelativeMargin(w[:s-1+k], s-1) >= 0
}

// State carries the joint (ρ, µ) pair for online consumers (the chain
// simulator's margin-driven attacker feeds symbols as slots resolve).
// The zero value is the state for x = y = ε.
type State struct {
	Rho int
	Mu  int
}

// NewState starts a margin computation for the decomposition point after
// prefix x.
func NewState(x charstring.String) State {
	r := Rho(x)
	return State{Rho: r, Mu: r}
}

// Step advances the state by one symbol of y and returns the new state.
func (st State) Step(s charstring.Symbol) State {
	r, m := StepMu(st.Rho, st.Mu, s)
	return State{Rho: r, Mu: m}
}
