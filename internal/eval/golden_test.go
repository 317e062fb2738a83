package eval

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// The paper pipeline, pinned. The hashes were generated on the commit
// before the heuristic hot path moved to indexed topology, bitset
// spectrum and provision tables, so any drift in KSP order, first-fit
// placement, MinProvision tie-breaks or restoration pairing fails
// `go test ./...` without running the benchmark. The figure hash covers
// what the benchmark's `figures` op hashes; the detail hash covers every
// wavelength and every restored channel behind those figures.

func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", sum[:8])
}

func dumpPlan(b *strings.Builder, r *plan.Result) {
	for _, w := range r.Wavelengths {
		fmt.Fprintf(b, "%s %d %v %x %v %v\n", w.LinkID, w.PathIndex, w.Path.Fibers, w.Path.LengthKm, w.Mode, w.Interval)
	}
	fmt.Fprintf(b, "unserved %v used %d\n", r.Unserved, r.Allocator.UsedPixels())
}

func dumpSweep(b *strings.Builder, s restore.SweepResult) {
	for _, r := range s.Results {
		fmt.Fprintf(b, "%s %d/%d\n", r.Scenario.ID, r.RestoredGbps, r.AffectedGbps)
		for _, w := range r.Restored {
			var original spectrum.Interval // stays zero for a channel revived on an extra spare
			if w.Original != nil {
				original = w.Original.Interval
			}
			fmt.Fprintf(b, "  %s %v %v %x %v %v\n", w.LinkID, original, w.Path.Fibers, w.Path.LengthKm, w.Mode, w.Interval)
		}
	}
	fmt.Fprintf(b, "failed %v\n", s.FailedIDs())
}

func figuresHash(t *testing.T, n workload.Network) string {
	t.Helper()
	sav, err := HeadlineSavings(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	f12, err := Fig12HardwareVsScale(n, []float64{1, 2, 3, 4, 5, 6, 7, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f15, err := Fig15bRestorationVsScale(n, []float64{1, 2, 3, 4, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f16, err := Fig16RestorationCDF(n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return shortHash(sav.String() + f12.String() + f15.String() + f16.String())
}

// detailHash plans the network with every scheme at the given scales and
// sweeps all single-fiber cuts on each feasible plan.
func detailHash(t *testing.T, n workload.Network, scales []float64) string {
	t.Helper()
	var b strings.Builder
	for _, cat := range Schemes() {
		for _, scale := range scales {
			scaled := n.Scale(scale)
			base, err := planScheme(scaled, cat)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "== %s %gx\n", cat.Name, scale)
			dumpPlan(&b, base)
			if !base.Feasible() {
				continue
			}
			sweep, err := restore.SweepWithOptions(restore.Problem{
				Optical: n.Optical, IP: scaled.IP, Catalog: cat, Grid: spectrum.DefaultGrid(), Base: base,
			}, restore.SingleFiberScenarios(n.Optical), restore.SweepOptions{})
			if err != nil {
				t.Fatal(err)
			}
			dumpSweep(&b, sweep)
		}
	}
	return shortHash(b.String())
}

func TestGoldenPaperPipeline(t *testing.T) {
	for _, tc := range []struct {
		seed            int64
		figures, detail string
	}{
		{seed: 1, figures: "8407cc036fbd0d73", detail: "6f0dace879a104ab"},
		{seed: 3, figures: "7533a50e30711eca", detail: "e06593f0daea470e"},
	} {
		n := workload.TBackbone(tc.seed)
		if got := figuresHash(t, n); got != tc.figures {
			t.Errorf("T-backbone seed %d: figures hash %s, want %s", tc.seed, got, tc.figures)
		}
		if got := detailHash(t, n, []float64{1, 4}); got != tc.detail {
			t.Errorf("T-backbone seed %d: detail hash %s, want %s", tc.seed, got, tc.detail)
		}
	}
}

func TestGoldenCernetRestoreSweep(t *testing.T) {
	const want = "eb52bd3a746ef996"
	n := workload.Cernet(1)
	var b strings.Builder
	sweep, base, err := restorationSweep(n, transponder.SVT(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	dumpPlan(&b, base)
	dumpSweep(&b, sweep)
	spares := map[string]int{}
	for _, l := range n.IP.Links {
		spares[l.ID] = 1
	}
	plus, _, err := restorationSweep(n, transponder.SVT(), spares, 0)
	if err != nil {
		t.Fatal(err)
	}
	dumpSweep(&b, plus)
	if got := shortHash(b.String()); got != want {
		t.Errorf("CERNET restore sweep hash %s, want %s", got, want)
	}
}
