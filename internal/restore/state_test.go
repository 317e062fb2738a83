package restore

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"flexwan/internal/plan"
	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// plannedNetworks are the backbones the differential tests cut: two
// T-backbone seeds and CERNET, each planned with the SVT catalog.
func plannedNetworks(t *testing.T) map[string]Problem {
	t.Helper()
	out := make(map[string]Problem)
	for name, n := range map[string]workload.Network{
		"tbackbone-1": workload.TBackbone(1),
		"tbackbone-7": workload.TBackbone(7),
		"cernet-1":    workload.Cernet(1),
	} {
		base, err := plan.Solve(plan.Problem{Optical: n.Optical, IP: n.IP, Catalog: transponder.SVT(), Grid: spectrum.DefaultGrid()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = Problem{Optical: n.Optical, IP: n.IP, Catalog: transponder.SVT(), Grid: spectrum.DefaultGrid(), Base: base}
	}
	return out
}

// cutsOf returns every single-fiber cut of the problem's topology and 200
// seeded cuts of two to four fibers, some naming a fiber twice or a fiber
// that does not exist.
func cutsOf(p Problem, seed int64) []Scenario {
	scs := SingleFiberScenarios(p.Optical)
	fibers := p.Optical.Fibers()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 200; i++ {
		sc := Scenario{ID: fmt.Sprintf("multi-%d", i)}
		for n := 2 + rng.Intn(3); n > 0; n-- {
			sc.CutFibers = append(sc.CutFibers, fibers[rng.Intn(len(fibers))].ID)
		}
		switch rng.Intn(8) {
		case 0:
			sc.CutFibers = append(sc.CutFibers, sc.CutFibers[0])
		case 1:
			sc.CutFibers = append(sc.CutFibers, "no-such-fiber")
		}
		scs = append(scs, sc)
	}
	return scs
}

// sameSpectrum compares two allocators fiber by fiber; a fiber without a
// map and an all-free one are the same occupancy.
func sameSpectrum(p Problem, got, want *spectrum.Allocator) error {
	for _, f := range p.Optical.Fibers() {
		id := spectrum.FiberID(f.ID)
		if g, w := got.FiberMap(id).FreeRuns(), want.FiberMap(id).FreeRuns(); !reflect.DeepEqual(g, w) {
			return fmt.Errorf("fiber %s: free runs %v, want %v", f.ID, g, w)
		}
	}
	if got.UsedPixels() != want.UsedPixels() {
		return fmt.Errorf("%d pixels used, want %d", got.UsedPixels(), want.UsedPixels())
	}
	return nil
}

// TestCutMatchesReplayOracle: for every cut, the failed wavelengths the
// fiber index names are the ones a scan of the plan finds, and the
// occupancy left after forking the base state and releasing them — or
// releasing them from the state itself, as the one-shot Solve and
// SolveExact do — is the occupancy a replay of the survivors builds. The
// forks leave the state they came from as it was.
func TestCutMatchesReplayOracle(t *testing.T) {
	for name, p := range plannedNetworks(t) {
		st, err := newBaseState(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		whole, err := survivorAllocator(p.Grid, p.Base, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range cutsOf(p, 42) {
			what := fmt.Sprintf("%s, cut %v", name, sc.CutFibers)
			wantFailed := affected(p.Base, sc.CutFibers)
			want, err := survivorAllocator(p.Grid, p.Base, wantFailed)
			if err != nil {
				t.Fatalf("%s: oracle: %v", what, err)
			}
			once, err := newBaseState(p) // a one-shot solve's own state, consumed
			if err != nil {
				t.Fatal(err)
			}
			for entry, cut := range map[string]func() ([]int, *spectrum.Allocator, error){
				"forked":   func() ([]int, *spectrum.Allocator, error) { return st.cut(sc, false) },
				"consumed": func() ([]int, *spectrum.Allocator, error) { return once.cut(sc, true) },
			} {
				failed, alloc, err := cut()
				if err != nil {
					t.Fatalf("%s, %s: %v", what, entry, err)
				}
				if !reflect.DeepEqual(failed, wantFailed) {
					t.Fatalf("%s, %s: failed wavelengths %v, a scan of the plan finds %v", what, entry, failed, wantFailed)
				}
				if len(failed) == 0 {
					if alloc != nil {
						t.Fatalf("%s, %s: an allocator for a cut that fails nothing", what, entry)
					}
					continue
				}
				if err := sameSpectrum(p, alloc, want); err != nil {
					t.Fatalf("%s, %s: %v", what, entry, err)
				}
				// Claim what was just freed: a fork's writes must not show in the state.
				w := p.Base.Wavelengths[failed[0]]
				if err := alloc.AllocatePath(w.Path, w.Interval); err != nil {
					t.Fatalf("%s, %s: the failed wavelength's spectrum is not free: %v", what, entry, err)
				}
			}
			if err := sameSpectrum(p, st.occupancy, whole); err != nil {
				t.Fatalf("%s: the shared state changed under its forks: %v", what, err)
			}
		}
	}
}

// TestSolveMatchesReplayOracle: the heuristic on the shared state restores
// exactly what the replay-everything heuristic restored, field for field,
// one-shot and in a sweep, with and without extra spares and best fit.
func TestSolveMatchesReplayOracle(t *testing.T) {
	for name, p := range plannedNetworks(t) {
		variants := map[string]Problem{"default": p}
		spares := p
		spares.ExtraSpares = make(map[string]int)
		for i, l := range p.IP.Links {
			spares.ExtraSpares[l.ID] = i % 3
		}
		spares.Fit = spectrum.BestFit
		spares.K = 4
		variants["spares+bestfit+k4"] = spares
		for vname, p := range variants {
			scs := cutsOf(p, 43)
			sweep, err := SweepWithOptions(p, scs, SweepOptions{Workers: 2})
			if err != nil || sweep.Failed() != 0 {
				t.Fatalf("%s/%s: sweep: %v, failed %v", name, vname, err, sweep.FailedIDs())
			}
			for i, sc := range scs {
				q := p
				q.Scenario = sc
				want, err := replaySolve(q)
				if err != nil {
					t.Fatalf("%s/%s, cut %v: oracle: %v", name, vname, sc.CutFibers, err)
				}
				got, err := Solve(q)
				if err != nil {
					t.Fatalf("%s/%s, cut %v: %v", name, vname, sc.CutFibers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s, cut %v: one-shot Solve restored %d Gbps over %d channels, the replay heuristic %d over %d",
						name, vname, sc.CutFibers, got.RestoredGbps, len(got.Restored), want.RestoredGbps, len(want.Restored))
				}
				if !reflect.DeepEqual(sweep.Results[i], want) {
					t.Fatalf("%s/%s, cut %v: the sweep's result differs from the replay heuristic's", name, vname, sc.CutFibers)
				}
			}
		}
	}
}

// baseContent renders a plan's wavelengths — through their Path and Mode
// pointers, which %#v would print as addresses — candidate paths, per-link
// summary and unserved list.
func baseContent(t *testing.T, base *plan.Result) string {
	t.Helper()
	content := *base
	content.Allocator = nil // compared fiber by fiber, by sameSpectrum
	out, err := json.Marshal(content)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestSweepEqualsOneShotAndLeavesBaseAlone: at every worker count a
// sweep's results deep-equal one-shot Solve per scenario, and neither
// writes the base plan — its wavelengths, its paths or its allocator.
func TestSweepEqualsOneShotAndLeavesBaseAlone(t *testing.T) {
	p := plannedNetworks(t)["tbackbone-1"]
	before := baseContent(t, p.Base)
	beforeAlloc := p.Base.Allocator.Fork()
	scs := cutsOf(p, 44)
	oneShot := make([]*Result, len(scs))
	for i, sc := range scs {
		q := p
		q.Scenario = sc
		var err error
		if oneShot[i], err = Solve(q); err != nil {
			t.Fatalf("cut %v: %v", sc.CutFibers, err)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		sweep, err := SweepWithOptions(p, scs, SweepOptions{Workers: workers})
		if err != nil || sweep.Failed() != 0 {
			t.Fatalf("workers=%d: %v, failed %v", workers, err, sweep.FailedIDs())
		}
		if !reflect.DeepEqual(sweep.Results, oneShot) {
			t.Errorf("workers=%d: sweep results differ from one-shot Solve per scenario", workers)
		}
	}
	if after := baseContent(t, p.Base); after != before {
		t.Error("restoration wrote the base plan")
	}
	if err := sameSpectrum(p, p.Base.Allocator, beforeAlloc); err != nil {
		t.Errorf("restoration wrote the base plan's allocator: %v", err)
	}
}

// An overlapping base plan is caught when the shared state is built, so it
// fails the whole sweep — every scenario, also those that cut one of the
// two overlapping wavelengths or nothing at all — and every one-shot solve.
func TestInconsistentBaseFailsWholeSweep(t *testing.T) {
	g := ring(t)
	p, r := planFor(t, g, ipAB(t, 400), transponder.SVT(), spectrum.DefaultGrid())
	overlapping := *r
	overlapping.Wavelengths = append(append([]plan.Wavelength(nil), r.Wavelengths...), r.Wavelengths[0])
	prob := Problem{Optical: g, IP: p.IP, Catalog: p.Catalog, Grid: p.Grid, Base: &overlapping}
	scs := append(SingleFiberScenarios(g), Scenario{ID: "cut-nothing", CutFibers: []string{"no-such-fiber"}})
	sweep, err := SweepWithOptions(prob, scs, SweepOptions{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "base plan inconsistent") {
		t.Fatalf("sweep over an overlapping base plan: %v", err)
	}
	if sweep.Failed() != len(scs) || len(sweep.Results) != 0 {
		t.Fatalf("%d of %d scenarios failed, %d results", sweep.Failed(), len(scs), len(sweep.Results))
	}
	for _, e := range sweep.Errors {
		if !strings.Contains(e.Error(), "base plan inconsistent") {
			t.Errorf("scenario %s: %v", e.ID, e.Err)
		}
	}
	prob.Scenario = scs[0]
	if _, err := Solve(prob); err == nil || !strings.Contains(err.Error(), "base plan inconsistent") {
		t.Errorf("one-shot Solve on an overlapping base plan: %v", err)
	}
}
