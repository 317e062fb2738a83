package eval

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// resetMemo forgets the memo's network: the next figure starts from nothing.
func resetMemo() {
	memo.mu.Lock()
	memo.cur = nil
	memo.mu.Unlock()
}

// render is one figure on a network, printed as the CLI prints it (and as
// its CSV, where it has one).
type render struct {
	name string
	fn   func(n workload.Network) (string, error)
}

func withCSV(s fmt.Stringer, c CSVData) string {
	var b strings.Builder
	b.WriteString(s.String())
	for _, row := range c.CSV() {
		b.WriteString(strings.Join(row, ",") + "\n")
	}
	return b.String()
}

// everyFigure lists the figures that read the memo. Fig 16 at 5× comes
// before Fig 12 and Fig 15(b), so that they read points another figure
// planned and swept.
var everyFigure = []render{
	{"headline", func(n workload.Network) (string, error) {
		s, err := HeadlineSavings(n, 1)
		return s.String(), err
	}},
	{"fig16@5x", func(n workload.Network) (string, error) {
		f, err := Fig16RestorationCDF(n, 5, 2)
		return withCSV(f, f), err
	}},
	{"fig12", func(n workload.Network) (string, error) {
		f, err := Fig12HardwareVsScale(n, []float64{1, 2, 3, 4, 5, 6, 7, 8}, 2)
		return withCSV(f, f), err
	}},
	{"fig13b", func(n workload.Network) (string, error) {
		f, err := Fig13bTopologyGains(n)
		return f.String(), err
	}},
	{"fig14", func(n workload.Network) (string, error) {
		f, err := Fig14WavelengthDistributions(n)
		return withCSV(f, f), err
	}},
	{"fig15a", func(n workload.Network) (string, error) {
		f, err := Fig15aRestoredPathGaps(n, 2)
		return withCSV(f, f), err
	}},
	{"fig15b", func(n workload.Network) (string, error) {
		f, err := Fig15bRestorationVsScale(n, []float64{1, 2, 3, 4, 5}, 2)
		return withCSV(f, f), err
	}},
	{"fig16@1x", func(n workload.Network) (string, error) {
		f, err := Fig16RestorationCDF(n, 1, 2)
		return withCSV(f, f), err
	}},
	{"probabilistic", func(n workload.Network) (string, error) {
		f, err := ProbabilisticRestorationSweep(n, 1, 7, 12, 0.3, 2)
		return f.String(), err
	}},
	{"reach-sensitivity", func(n workload.Network) (string, error) {
		f, err := ReachSensitivityStudy(n)
		return f.String(), err
	}},
}

// renderAll renders the figures in order on n. With fresh set, the memo
// is reset before each, so every figure plans and sweeps from nothing.
func renderAll(t *testing.T, n workload.Network, figures []render, fresh bool) []string {
	t.Helper()
	out := make([]string, len(figures))
	for i, r := range figures {
		if fresh {
			resetMemo()
		}
		s, err := r.fn(n)
		if err != nil {
			t.Fatalf("%s on %s: %v", r.name, n.Name, err)
		}
		out[i] = s
	}
	return out
}

// sameRenders fails the test at the first figure that differs.
func sameRenders(t *testing.T, what string, figures []render, got, want []string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: %s differs from its render from nothing:\n%s\nwant:\n%s", what, figures[i].name, got[i], want[i])
		}
	}
}

// The figures of one network share their plans and sweeps, and print
// byte for byte what each prints from nothing. The memo is keyed so that a
// changed network or another catalog is never served a stale point, it is
// safe for figures on two networks at once, and it plans each point once.
func TestFiguresShareTheirPlans(t *testing.T) {
	networks := []workload.Network{workload.TBackbone(1), workload.TBackbone(3), workload.Cernet(1)}
	fresh := make([][]string, len(networks))
	for i, n := range networks {
		resetMemo()
		shared := renderAll(t, n, everyFigure, false)
		fresh[i] = renderAll(t, n, everyFigure, true)
		sameRenders(t, n.Name, everyFigure, shared, fresh[i])
	}

	planning := everyFigure[:3] // headline, Fig 16 at 5×, Fig 12
	t.Run("demand edited in place", func(t *testing.T) {
		n := workload.TBackbone(1)
		before := renderAll(t, n, planning, false)
		for i := range n.IP.Links {
			n.IP.Links[i].DemandGbps *= 2
		}
		got := renderAll(t, n, planning, false)
		sameRenders(t, "doubled demands", planning, got, renderAll(t, n, planning, true))
		if slices.Equal(got, before) {
			t.Fatal("doubling every demand changed no figure: the check shows nothing")
		}
	})

	t.Run("fiber added in place", func(t *testing.T) {
		n := workload.TBackbone(1)
		before := renderAll(t, n, planning, false)
		// A short fiber between the ends of the IP link with the longest
		// shortest path shortens that link's paths.
		var longest float64
		var a, b = n.IP.Links[0].A, n.IP.Links[0].B
		for _, l := range n.IP.Links {
			if p, ok := n.Optical.ShortestPath(l.A, l.B); ok && p.LengthKm > longest {
				longest, a, b = p.LengthKm, l.A, l.B
			}
		}
		if err := n.Optical.AddFiber("shortcut", a, b, 1); err != nil {
			t.Fatal(err)
		}
		got := renderAll(t, n, planning, false)
		sameRenders(t, "added fiber", planning, got, renderAll(t, n, planning, true))
		if slices.Equal(got, before) {
			t.Fatal("the shortcut fiber changed no figure: the check shows nothing")
		}
	})

	t.Run("catalogs under one name", func(t *testing.T) {
		n := workload.TBackbone(1)
		resetMemo()
		nw := networkOf(n)
		svt := nw.point(transponder.SVT(), 1).cost
		for what, cat := range map[string]transponder.Catalog{
			"hand-built":    {Name: "FlexWAN", Modes: slices.Clone(transponder.RADWAN().Modes)},
			"shorter reach": transponder.SVT().WithReaches("FlexWAN", func(m transponder.Mode) float64 { return m.ReachKm / 2 }),
		} {
			pt := nw.point(cat, 1)
			if pt.err != nil {
				t.Fatal(pt.err)
			}
			got := pt.cost
			res, err := planScheme(n, cat)
			if err != nil {
				t.Fatal(err)
			}
			want := cost{res.Feasible(), res.Transponders(), res.SpectrumGHz(), res.MeanSpectralEfficiency()}
			if got != want {
				t.Errorf("%s catalog named FlexWAN: memo reads %+v, its own plan %+v", what, got, want)
			}
			if want == svt {
				t.Errorf("%s catalog named FlexWAN costs what SVT does: the check shows nothing", what)
			}
		}
	})

	// An infeasible point keeps its numbers, not its plan; a figure that
	// reads the plan gets what planning from nothing places.
	t.Run("infeasible plans", func(t *testing.T) {
		n := workload.TBackbone(1)
		resetMemo()
		nw := networkOf(n)
		fx := transponder.Fixed100G()
		pt := nw.point(fx, 8)
		if pt.err != nil {
			t.Fatal(pt.err)
		}
		c := pt.cost
		if c.feasible {
			t.Fatal("100G-WAN serves 8x: the check shows nothing")
		}
		got, err := nw.plan(pt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := planScheme(n.Scale(8), fx)
		if err != nil {
			t.Fatal(err)
		}
		var g, w strings.Builder
		dumpPlan(&g, got)
		dumpPlan(&w, want)
		if g.String() != w.String() || c.transponders != want.Transponders() || c.spectrumGHz != want.SpectrumGHz() {
			t.Error("the memo's infeasible 100G-WAN plan at 8x differs from planning it from nothing")
		}
	})

	t.Run("two networks at once", func(t *testing.T) {
		figures := append(slices.Clone(everyFigure[:1]), everyFigure[2], everyFigure[6], everyFigure[7])
		pair := []int{0, 2} // a T-backbone and CERNET
		want := make(map[int][]string)
		for _, i := range pair {
			want[i] = renderAll(t, networks[i], figures, true)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 4; g++ {
			i := pair[g%2]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r, f := range figures {
					s, err := f.fn(networks[i])
					if err != nil {
						errs <- fmt.Sprintf("%s on %s: %v", f.name, networks[i].Name, err)
						return
					}
					if s != want[i][r] {
						errs <- fmt.Sprintf("%s on %s differs from its render from nothing", f.name, networks[i].Name)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	})

	// The benchmark's figures op: the headline, Fig 12 at 1–8×, Fig 15(b) at
	// 1–5× and Fig 16 at 1× are 45 plans, 24 of them distinct.
	t.Run("work", func(t *testing.T) {
		n := workload.TBackbone(1)
		resetMemo()
		solves := planSolves.Load()
		for _, fn := range []func() error{
			func() error { _, err := HeadlineSavings(n, 1); return err },
			func() error { _, err := Fig12HardwareVsScale(n, []float64{1, 2, 3, 4, 5, 6, 7, 8}, 2); return err },
			func() error { _, err := Fig15bRestorationVsScale(n, []float64{1, 2, 3, 4, 5}, 2); return err },
			func() error { _, err := Fig16RestorationCDF(n, 1, 2); return err },
		} {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		}
		if got := planSolves.Load() - solves; got != 24 {
			t.Errorf("headline, Fig 12, Fig 15(b) and Fig 16 solved %d plans, want 24", got)
		}
	})
}
