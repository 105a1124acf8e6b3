// Package charstring implements the characteristic strings of
// Kiayias–Quader–Russell (ICDCS 2020): abstract per-slot summaries of a
// proof-of-stake leader-election outcome.
//
// A synchronous characteristic string is an element of {h, H, A}^T where,
// for each slot t,
//
//   - h: the slot has exactly one honest leader and no adversarial leader,
//   - H: the slot has at least one honest leader and no adversarial leader,
//     with the number of leaders possibly exceeding one, and
//   - A: the slot has at least one adversarial leader.
//
// The package also provides the semi-synchronous alphabet {⊥, h, H, A}
// (see package deltasync for the reduction map), interval-counting helpers,
// the hH-heavy / A-heavy predicates that drive the Catalan-slot machinery,
// and the partial order h < H < A together with its stochastic dominance.
package charstring

import (
	"fmt"
	"strings"
)

// Symbol is one letter of a characteristic string.
//
// The zero value is not a valid symbol; valid symbols start at 1 so that an
// uninitialized Symbol is detectable.
type Symbol uint8

// Valid symbols. The declared order realizes the paper's partial order on
// single symbols: h < H < A ("more adversarial" is larger). Empty is only
// meaningful in semi-synchronous strings.
const (
	UniqueHonest Symbol = iota + 1 // h: exactly one honest leader
	MultiHonest                    // H: ≥1 honest leaders, no adversarial
	Adversarial                    // A: at least one adversarial leader
	Empty                          // ⊥: no leader (semi-synchronous only)
)

// String returns the paper's one-letter notation for the symbol.
func (s Symbol) String() string {
	switch s {
	case UniqueHonest:
		return "h"
	case MultiHonest:
		return "H"
	case Adversarial:
		return "A"
	case Empty:
		return "_"
	default:
		return fmt.Sprintf("Symbol(%d)", uint8(s))
	}
}

// Honest reports whether the symbol denotes a slot with only honest leaders
// (h or H).
func (s Symbol) Honest() bool { return s == UniqueHonest || s == MultiHonest }

// ValidSync reports whether s may appear in a synchronous characteristic
// string ({h, H, A}).
func (s Symbol) ValidSync() bool {
	return s == UniqueHonest || s == MultiHonest || s == Adversarial
}

// ValidSemiSync reports whether s may appear in a semi-synchronous
// characteristic string ({⊥, h, H, A}).
func (s Symbol) ValidSemiSync() bool { return s.ValidSync() || s == Empty }

// Leq reports whether s ≤ t in the paper's partial order on symbols
// (h < H < A). Empty is not comparable to the others and Leq returns false
// for any comparison involving it except Empty ≤ Empty.
func (s Symbol) Leq(t Symbol) bool {
	if s == Empty || t == Empty {
		return s == t
	}
	return s <= t
}

// Walk returns the ±1 increment contributed by the symbol to the biased walk
// S of the paper: +1 for an adversarial slot and −1 for an honest slot.
// Empty slots contribute 0.
func (s Symbol) Walk() int {
	switch s {
	case Adversarial:
		return 1
	case UniqueHonest, MultiHonest:
		return -1
	default:
		return 0
	}
}

// String is a characteristic string: a sequence of per-slot symbols.
// Slot s ∈ [1, T] of the paper corresponds to index s−1.
//
// The zero value is the empty string ε.
type String []Symbol

// Parse converts the paper's textual notation ("hAhAhHAAH", with '_' or '.'
// for ⊥) into a String. It returns an error on any other rune.
func Parse(text string) (String, error) {
	w := make(String, 0, len(text))
	for i, r := range text {
		switch r {
		case 'h':
			w = append(w, UniqueHonest)
		case 'H':
			w = append(w, MultiHonest)
		case 'A', '1': // the paper occasionally writes adversarial slots as 1
			w = append(w, Adversarial)
		case '_', '.', 'E':
			w = append(w, Empty)
		default:
			return nil, fmt.Errorf("charstring: invalid symbol %q at index %d", r, i)
		}
	}
	return w, nil
}

// MustParse is Parse for tests and package-level literals; it panics on error.
func MustParse(text string) String {
	w, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return w
}

// String renders w in the paper's notation.
func (w String) String() string {
	var b strings.Builder
	b.Grow(len(w))
	for _, s := range w {
		b.WriteString(s.String())
	}
	return b.String()
}

// Len returns T, the number of slots.
func (w String) Len() int { return len(w) }

// At returns the symbol of slot s using the paper's 1-based slot indexing.
// It panics if s is out of [1, T].
func (w String) At(slot int) Symbol {
	if slot < 1 || slot > len(w) {
		panic(fmt.Sprintf("charstring: slot %d out of range [1,%d]", slot, len(w)))
	}
	return w[slot-1]
}

// Clone returns an independent copy of w.
func (w String) Clone() String {
	if w == nil {
		return nil
	}
	c := make(String, len(w))
	copy(c, w)
	return c
}

// Count returns #σ(w), the number of occurrences of σ in w.
func (w String) Count(sigma Symbol) int {
	n := 0
	for _, s := range w {
		if s == sigma {
			n++
		}
	}
	return n
}

// CountInterval returns #σ(I) for the closed slot interval I = [i, j]
// (1-based, inclusive). An empty interval (i > j) yields 0.
func (w String) CountInterval(i, j int, sigma Symbol) int {
	if i < 1 {
		i = 1
	}
	if j > len(w) {
		j = len(w)
	}
	n := 0
	for t := i; t <= j; t++ {
		if w[t-1] == sigma {
			n++
		}
	}
	return n
}

// HonestCount returns #h(w) + #H(w).
func (w String) HonestCount() int {
	n := 0
	for _, s := range w {
		if s.Honest() {
			n++
		}
	}
	return n
}

// HHHeavy reports whether w is hH-heavy: #h(w) + #H(w) > #A(w).
func (w String) HHHeavy() bool { return w.HonestCount() > w.Count(Adversarial) }

// IntervalHHHeavy reports whether the closed slot interval [i, j] of w is
// hH-heavy.
func (w String) IntervalHHHeavy(i, j int) bool {
	if i < 1 {
		i = 1
	}
	if j > len(w) {
		j = len(w)
	}
	bal := 0
	for t := i; t <= j; t++ {
		bal += w[t-1].Walk()
	}
	return bal < 0
}

// IntervalAHeavy reports whether the closed slot interval [i, j] of w is
// A-heavy.
func (w String) IntervalAHeavy(i, j int) bool { return !w.IntervalHHHeavy(i, j) }

// IsPrefixOf reports whether w ⪯ v (w is a, possibly equal, prefix of v).
func (w String) IsPrefixOf(v String) bool {
	if len(w) > len(v) {
		return false
	}
	for i, s := range w {
		if v[i] != s {
			return false
		}
	}
	return true
}

// Leq reports whether w ≤ v in the paper's coordinatewise partial order on
// {h,H,A}^T (Definition 6 discussion): |w| == |v| and w_i ≤ v_i for all i.
// When w ≤ v, v is "more adversarial" than w: any fork for w is a fork for v.
func (w String) Leq(v String) bool {
	if len(w) != len(v) {
		return false
	}
	for i := range w {
		if !w[i].Leq(v[i]) {
			return false
		}
	}
	return true
}

// SemiSync reports whether w is a valid semi-synchronous string
// ({⊥, h, H, A}); a synchronous string is trivially semi-synchronous.
func (w String) SemiSync() bool {
	for _, s := range w {
		if !s.ValidSemiSync() {
			return false
		}
	}
	return true
}

// Sync reports whether w is a valid synchronous string ({h, H, A}).
func (w String) Sync() bool {
	for _, s := range w {
		if !s.ValidSync() {
			return false
		}
	}
	return true
}

// Walks returns the prefix-sum walk S_0 = 0, S_t = S_{t−1} + w_t.Walk() for
// t = 1..T, as a slice of length T+1 indexed by t.
func (w String) Walks() []int {
	s := make([]int, len(w)+1)
	for t, sym := range w {
		s[t+1] = s[t] + sym.Walk()
	}
	return s
}

// Relax returns a copy of w with every h replaced by H. An execution
// consistent with w is also consistent with Relax(w); the fork set can only
// grow (the H symbol permits, but does not require, multiple honest
// vertices).
func (w String) Relax() String {
	c := w.Clone()
	for i, s := range c {
		if s == UniqueHonest {
			c[i] = MultiHonest
		}
	}
	return c
}
