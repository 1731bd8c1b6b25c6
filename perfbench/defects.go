package main

import (
	"fmt"

	"lakego/internal/loadgen"
)

// millionOfferedRatios replays builtin million with its diurnal curve and
// burst off, once as shipped (with connection churn) and once without
// churn, and returns measured arrivals over configured rate x window for
// each. Untimed; it runs in every invocation so the churn defect (churned
// clients stop arriving) stays visible until it is fixed.
func millionOfferedRatios(tiny bool) (withChurn, withoutChurn float64, err error) {
	ratio := func(churn bool) (float64, error) {
		s := loadgen.Million()
		s.Diurnal, s.Bursts = nil, nil
		if tiny {
			s.Clients = 1 << 14
		}
		if !churn {
			s.Churn = nil
		}
		r, err := loadgen.Run(s)
		if err != nil {
			return 0, fmt.Errorf("million (churn %v): %w", churn, err)
		}
		want, err := expectedArrivals(s)
		if err != nil {
			return 0, err
		}
		return float64(r.Arrivals) / want, nil
	}
	if withChurn, err = ratio(true); err != nil {
		return 0, 0, err
	}
	withoutChurn, err = ratio(false)
	return withChurn, withoutChurn, err
}

// seedCollapse replays loadgen.Smoke at seeds 1 and 3, with the router seed
// held at Smoke's own, and reports whether the two results are identical.
// loadgen XORs its seed into the client ID
// before hashing, so seeds that differ only in bits 1 and up replay a
// permutation of the same arrivals (3 = 1 XOR 2 swaps clients 2k and 2k+1).
// Untimed, like the churn check, so the defect stays visible.
func seedCollapse() (bool, error) {
	var rs [2]*loadgen.Result
	for i, seed := range []int64{1, 3} {
		s := loadgen.Smoke()
		s.RouterSeed = s.Seed
		s.Seed = seed
		r, err := loadgen.Run(s)
		if err != nil {
			return false, fmt.Errorf("smoke seed %d: %w", seed, err)
		}
		rs[i] = r
	}
	a, b := rs[0], rs[1]
	if a.Arrivals != b.Arrivals || a.Completed != b.Completed || a.VirtualElapsed != b.VirtualElapsed {
		return false, nil
	}
	for i := range a.Classes {
		ca, cb := a.Classes[i], b.Classes[i]
		if ca.Arrivals != cb.Arrivals || ca.P50 != cb.P50 || ca.P99 != cb.P99 || ca.Max != cb.Max {
			return false, nil
		}
	}
	return true, nil
}
