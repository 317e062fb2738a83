package flexwan_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"flexwan"
)

// Example plans a two-link backbone with FlexWAN's spacing-variable
// transponders and prints the hardware bill.
func Example() {
	optical := flexwan.NewOptical()
	optical.AddFiber("f1", "A", "B", 250)
	optical.AddFiber("f2", "B", "C", 900)

	ip := &flexwan.IPTopology{}
	ip.AddLink(flexwan.IPLink{ID: "ab", A: "A", B: "B", DemandGbps: 800})
	ip.AddLink(flexwan.IPLink{ID: "ac", A: "A", B: "C", DemandGbps: 400})

	result, err := flexwan.Plan(flexwan.PlanProblem{
		Optical: optical,
		IP:      ip,
		Catalog: flexwan.SVT(),
		Grid:    flexwan.DefaultGrid(),
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d transponder pairs, %.0f GHz\n", result.Transponders(), result.SpectrumGHz())
	// Output: 2 transponder pairs, 238 GHz
}

// ExampleCatalog_MaxRateAt shows the rate-vs-distance staircase behind
// the paper's Figure 2(b).
func ExampleCatalog_MaxRateAt() {
	svt, bvt := flexwan.SVT(), flexwan.RADWAN()
	for _, km := range []float64{200, 1000, 2000} {
		fmt.Printf("%4.0f km: SVT %d Gbps, BVT %d Gbps\n", km, svt.MaxRateAt(km), bvt.MaxRateAt(km))
	}
	// Output:
	//  200 km: SVT 800 Gbps, BVT 300 Gbps
	// 1000 km: SVT 500 Gbps, BVT 300 Gbps
	// 2000 km: SVT 300 Gbps, BVT 200 Gbps
}

// ExampleRestore walks the paper's Figure 4: after a cut forces the
// wavelength onto a path twice as long, the SVT widens its channel
// spacing and revives the full data rate.
func ExampleRestore() {
	optical := flexwan.NewOptical()
	optical.AddFiber("primary", "A", "B", 600)
	optical.AddFiber("west", "A", "C", 500)
	optical.AddFiber("east", "C", "B", 700)
	ip := &flexwan.IPTopology{}
	ip.AddLink(flexwan.IPLink{ID: "ab", A: "A", B: "B", DemandGbps: 300})

	problem := flexwan.PlanProblem{
		Optical: optical, IP: ip, Catalog: flexwan.SVT(), Grid: flexwan.DefaultGrid(),
	}
	base, err := flexwan.Plan(problem)
	if err != nil {
		panic(err)
	}
	res, err := flexwan.Restore(flexwan.RestoreProblem{
		Optical: optical, IP: ip, Catalog: flexwan.SVT(), Grid: flexwan.DefaultGrid(),
		Base:     base,
		Scenario: flexwan.Scenario{ID: "cut", CutFibers: []string{"primary"}},
	})
	if err != nil {
		panic(err)
	}
	r := res.Restored[0]
	fmt.Printf("revived %d of %d Gbps at %.1f GHz spacing over a %.0f km path\n",
		res.RestoredGbps, res.AffectedGbps, r.Mode.SpacingGHz, r.Path.LengthKm)
	// Output: revived 300 of 300 Gbps at 87.5 GHz spacing over a 1200 km path
}

// ExampleDefaultGrid shows channel spacing landing on the pixel-wise WSS
// grid.
func ExampleDefaultGrid() {
	grid := flexwan.DefaultGrid()
	for _, ghz := range []float64{50, 87.5, 150} {
		n, _ := grid.PixelsFor(ghz)
		fmt.Printf("%.1f GHz -> %d pixels\n", ghz, n)
	}
	// Output:
	// 50.0 GHz -> 4 pixels
	// 87.5 GHz -> 7 pixels
	// 150.0 GHz -> 12 pixels
}

// ExampleController_HandleFiberCutReport deploys the Figure 4 triangle as
// live agents on loopback TCP, applies its plan through the controller,
// and reports a cut of the primary fiber: the controller solves the
// restoration, pushes it to the transponders and WSSes, and reads the
// fleet back.
func ExampleController_HandleFiberCutReport() {
	optical := flexwan.NewOptical()
	optical.AddFiber("primary", "A", "B", 600)
	optical.AddFiber("west", "A", "C", 500)
	optical.AddFiber("east", "C", "B", 700)
	ip := &flexwan.IPTopology{}
	ip.AddLink(flexwan.IPLink{ID: "ab", A: "A", B: "B", DemandGbps: 400})

	tb, err := flexwan.NewChaosTestbed(flexwan.Network{Name: "triangle", Optical: optical, IP: ip},
		flexwan.ChaosOptions{})
	if err != nil {
		panic(err)
	}
	defer tb.Close()
	rep, err := tb.Ctrl.HandleFiberCutReport("primary")
	if err != nil {
		panic(err)
	}
	audit, err := tb.Ctrl.Audit()
	if err != nil {
		panic(err)
	}
	fmt.Printf("revived %d of %d Gbps; audit clean = %v\n",
		rep.Result.RestoredGbps, rep.Result.AffectedGbps, audit.Clean())
	// Output: revived 400 of 400 Gbps; audit clean = true
}

// ExampleNewAPIServer runs the daemon's job service in-process: a plan
// job is submitted over the HTTP API and long-polled to its terminal
// state.
func ExampleNewAPIServer() {
	srv := flexwan.NewAPIServer(flexwan.APIServerOptions{Workers: 1})
	defer srv.Shutdown(context.Background())

	body, _ := json.Marshal(flexwan.JobSpec{Type: "plan", Network: "ring4", Seed: 1})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	var job flexwan.JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		panic(err)
	}
	fmt.Println("submitted:", rec.Code)

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+"?wait=10s", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		panic(err)
	}
	var res struct {
		Feasible    bool `json:"feasible"`
		Wavelengths int  `json:"wavelengths"`
	}
	if err := json.Unmarshal(job.Result, &res); err != nil {
		panic(err)
	}
	fmt.Printf("%s: feasible %v, %d wavelengths\n", job.State, res.Feasible, res.Wavelengths)
	// Output:
	// submitted: 202
	// Optimal: feasible true, 4 wavelengths
}
