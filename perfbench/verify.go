package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"multihonest/internal/oracle"
	"multihonest/internal/runner"
	"multihonest/internal/settlement"
)

// answer is the union of the oracle server's response bodies.
type answer struct {
	P       *float64             `json:"p"`
	Lower   *float64             `json:"lower"`
	Upper   *float64             `json:"upper"`
	Curve   []float64            `json:"curve"`
	Depth   int                  `json:"depth"`
	Code    string               `json:"code"`
	Plan    *oracle.BatchPlan    `json:"plan"`
	Results []oracle.BatchResult `json:"results"`
}

// verify re-derives each served answer on its own fresh, cold oracle —
// no cache, no snapshot, no extension history — and reports how many
// differ from what was served in any bit. It is cmd/loadgen -verify's
// check, run in process.
func verify(qs []query, bodies [][]byte, workers int) (mismatches int, errs []error) {
	var mu sync.Mutex
	_ = runner.ForEach(workers, len(qs), func(i int) error {
		if err := verifyOne(qs[i], bodies[i]); err != nil {
			mu.Lock()
			mismatches++
			errs = append(errs, fmt.Errorf("%s: %w", qs[i].Op, err))
			mu.Unlock()
		}
		return nil
	})
	return mismatches, errs
}

func sameBits(got *float64, want float64) error {
	if got == nil {
		return errors.New("answer missing")
	}
	if math.Float64bits(*got) != math.Float64bits(want) {
		return fmt.Errorf("served %v, cold re-derivation %v", *got, want)
	}
	return nil
}

func verifyOne(q query, body []byte) error {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("decoding answer: %v", err)
	}
	o := oracle.New(4)
	switch q.Op {
	case "failure":
		want, err := o.SettlementFailure(q.Alpha, q.Ph, q.K)
		if err != nil {
			return err
		}
		return sameBits(a.P, want)
	case "cell":
		want, err := o.TableCell(q.Frac, q.K, q.Alpha)
		if err != nil {
			return err
		}
		return sameBits(a.P, want)
	case "bracket":
		lo, hi, err := o.SettlementBracket(q.Alpha, q.Ph, q.K, q.Tau)
		if err != nil {
			return err
		}
		if err := sameBits(a.Lower, lo); err != nil {
			return err
		}
		return sameBits(a.Upper, hi)
	case "curve":
		want, err := o.SettlementCurve(q.Alpha, q.Frac*(1-q.Alpha), q.K)
		if err != nil {
			return err
		}
		return sameCurve(a.Curve, want)
	case "depth":
		want, err := o.ConfirmationDepth(q.Alpha, q.Frac*(1-q.Alpha), q.Target, q.KMax)
		if errors.Is(err, settlement.ErrTargetUnreachable) {
			if a.Code != "target_unreachable" {
				return fmt.Errorf("served depth %d, cold re-derivation: target unreachable", a.Depth)
			}
			return nil
		}
		if err != nil {
			return err
		}
		if a.Depth != want {
			return fmt.Errorf("served depth %d, cold re-derivation %d", a.Depth, want)
		}
		return nil
	case "batch":
		want, plan, err := o.Batch(q.Batch, 1)
		if err != nil {
			return err
		}
		if a.Plan == nil || *a.Plan != plan {
			return fmt.Errorf("served plan %+v, cold plan %+v", a.Plan, plan)
		}
		if len(a.Results) != len(want) {
			return fmt.Errorf("served %d results, want %d", len(a.Results), len(want))
		}
		for i := range want {
			g, w := a.Results[i], want[i]
			if g.Error != w.Error || g.Depth != w.Depth {
				return fmt.Errorf("batch result %d: served %+v, cold %+v", i, g, w)
			}
			for _, pair := range [][2]*float64{{g.P, w.P}, {g.Lower, w.Lower}, {g.Upper, w.Upper}} {
				if (pair[0] == nil) != (pair[1] == nil) {
					return fmt.Errorf("batch result %d: field presence differs", i)
				}
				if pair[1] != nil {
					if err := sameBits(pair[0], *pair[1]); err != nil {
						return fmt.Errorf("batch result %d: %w", i, err)
					}
				}
			}
			if err := sameCurve(g.Curve, w.Curve); err != nil {
				return fmt.Errorf("batch result %d: %w", i, err)
			}
		}
		return nil
	}
	return fmt.Errorf("unknown op %q", q.Op)
}

func sameCurve(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("served curve of %d points, cold re-derivation %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("curve[%d]: served %v, cold re-derivation %v", i, got[i], want[i])
		}
	}
	return nil
}
