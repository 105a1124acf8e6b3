package cp

import (
	"multihonest/internal/catalan"
	"multihonest/internal/charstring"
)

// WindowStream is the online form of UVPFreeWindow: it consumes a
// characteristic string symbol-at-a-time and maintains (1) a certified
// lower bound on the final longest UVP-free window, available after every
// symbol, and (2) enough state to produce the exact value once the string
// ends. It is the engine behind the streaming E5 verdict.
//
// The certification argument: a slot can only acquire the UVP if it is a
// Catalan slot, and the underlying catalan.Stream knows at all times which
// slots can still become Catalan (its pending candidates). Slots strictly
// between two consecutive candidate pushes are non-candidates forever, so
// the gap between them is UVP-free in the final string whatever the future
// holds; likewise the trailing run (MaxPendingSlot, t]. Certified() is the
// max of those, is monotone in the fed prefix, and never exceeds the exact
// Finish() value — so an early exit on Certified() ≥ k agrees with the
// slice-at-a-time oracle on every string.
//
// A WindowStream carries mutable scratch and is not safe for concurrent
// use. Set ConsistentTies before the first Feed.
type WindowStream struct {
	// ConsistentTies selects the tie-breaking model: with consistent ties
	// the consecutive-Catalan-pair certificate (Theorem 4) also confers the
	// UVP; without it only uniquely honest Catalan slots do (Theorem 3).
	ConsistentTies bool

	st   catalan.Stream
	best int // certified UVP-free window between past candidate pushes
}

// Reset starts a new string, keeping scratch capacity.
func (ws *WindowStream) Reset() {
	ws.st.Reset()
	ws.best = 0
}

// Feed consumes the next symbol.
func (ws *WindowStream) Feed(sym charstring.Symbol) {
	prevTop := ws.st.MaxPendingSlot()
	if ws.st.Feed(sym) {
		// A new candidate at slot t: the slots strictly between it and the
		// previous pending top were never candidates or are already dead,
		// so that gap is UVP-free forever. (A push means the walk stepped
		// down, so no candidate died this symbol and prevTop is intact.)
		ws.best = max(ws.best, ws.st.Len()-prevTop-1)
	}
}

// CopyFrom overwrites ws with a snapshot of src, reusing scratch capacity
// (see catalan.Stream.CopyFrom; used by the rare splitting engine).
func (ws *WindowStream) CopyFrom(src *WindowStream) {
	ws.ConsistentTies = src.ConsistentTies
	ws.st.CopyFrom(&src.st)
	ws.best = src.best
}

// Certified returns the certified lower bound on the final longest
// UVP-free window: the best gap between candidate pushes so far, or the
// trailing candidate-free run, whichever is longer.
func (ws *WindowStream) Certified() int {
	return max(ws.best, ws.st.Len()-ws.st.MaxPendingSlot())
}

// Finish returns the exact UVPFreeWindow value of the fed string. The
// surviving candidates are exactly the Catalan slots, so the UVP slots
// follow from the tie model: uniquely honest survivors always (Theorem 3),
// plus pair-starts of adjacent survivors under consistent ties (Theorem 4).
func (ws *WindowStream) Finish() int {
	pend := ws.st.Pending()
	longest, last := 0, 0
	for i, c := range pend {
		uvp := c.Sym == charstring.UniqueHonest
		if !uvp && ws.ConsistentTies && i+1 < len(pend) && pend[i+1].Slot == c.Slot+1 {
			uvp = true
		}
		if uvp {
			longest = max(longest, c.Slot-last-1)
			last = c.Slot
		}
	}
	return max(longest, ws.st.Len()-last)
}
