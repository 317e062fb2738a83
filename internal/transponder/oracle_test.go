package transponder

import (
	"math"
	"sort"
)

// freshMinProvision is the from-scratch dynamic program Catalog.MinProvision
// ran on every call before the reusable ProvisionTable, kept as its
// differential oracle: one table sized for this capacity alone, filled,
// scanned and traced back. Counts pair with modes by index.
func freshMinProvision(c Catalog, capacityGbps int, distKm float64) (Provision, bool) {
	if capacityGbps <= 0 {
		return Provision{}, false
	}
	feasible := c.FeasibleModes(distKm)
	if len(feasible) == 0 {
		return Provision{}, false
	}
	step := feasible[0].DataRateGbps
	maxRate := 0
	for _, m := range feasible {
		step = gcd(step, m.DataRateGbps)
		if m.DataRateGbps > maxRate {
			maxRate = m.DataRateGbps
		}
	}
	units := (capacityGbps + step - 1) / step
	limit := units + maxRate/step
	type cell struct {
		count    int
		spectrum float64
		mode     int
	}
	const unset = math.MaxInt32
	dp := make([]cell, limit+1)
	for i := 1; i <= limit; i++ {
		dp[i] = cell{count: unset}
	}
	for u := 1; u <= limit; u++ {
		for mi, m := range feasible {
			prev := u - m.DataRateGbps/step
			if prev < 0 {
				prev = 0
			}
			if dp[prev].count == unset {
				continue
			}
			cand := cell{count: dp[prev].count + 1, spectrum: dp[prev].spectrum + m.SpacingGHz, mode: mi}
			if cand.count < dp[u].count || (cand.count == dp[u].count && cand.spectrum < dp[u].spectrum) {
				dp[u] = cand
			}
		}
	}
	best := -1
	for u := units; u <= limit; u++ {
		if dp[u].count == unset {
			continue
		}
		if best < 0 || dp[u].count < dp[best].count ||
			(dp[u].count == dp[best].count && dp[u].spectrum < dp[best].spectrum) {
			best = u
		}
	}
	if best < 0 {
		return Provision{}, false
	}
	counts := make([]int, len(feasible))
	for u := best; u > 0 && dp[u].count > 0; {
		mi := dp[u].mode
		counts[mi]++
		u -= feasible[mi].DataRateGbps / step
		if u < 0 {
			u = 0
		}
	}
	var used []int
	for mi, n := range counts {
		if n > 0 {
			used = append(used, mi)
		}
	}
	sort.SliceStable(used, func(i, j int) bool {
		a, b := feasible[used[i]], feasible[used[j]]
		if a.DataRateGbps != b.DataRateGbps {
			return a.DataRateGbps > b.DataRateGbps
		}
		return a.SpacingGHz < b.SpacingGHz
	})
	var p Provision
	for _, mi := range used {
		p.Modes = append(p.Modes, *feasible[mi])
		p.Counts = append(p.Counts, counts[mi])
	}
	return p, true
}
