package spectrum

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func testGrid() Grid { return Grid{PixelGHz: 12.5, Pixels: 32} }

func TestAllocatorSingleFiber(t *testing.T) {
	a := NewAllocator(testGrid())
	al, err := a.Allocate([]FiberID{"f1"}, 6, FirstFit)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if al.Interval != (Interval{0, 6}) {
		t.Errorf("interval = %v, want [0,6)", al.Interval)
	}
	if a.UsedPixels() != 6 {
		t.Errorf("UsedPixels = %d, want 6", a.UsedPixels())
	}
	if ghz := float64(a.UsedPixels()) * a.Grid().PixelGHz; ghz != 75 {
		t.Errorf("used GHz = %v, want 75", ghz)
	}
	if err := a.Release(al); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if a.UsedPixels() != 0 {
		t.Errorf("UsedPixels after release = %d", a.UsedPixels())
	}
}

func TestAllocatorConsistencyAcrossPath(t *testing.T) {
	a := NewAllocator(testGrid())
	// Occupy [0,4) on f2 only; a path through f1+f2 must skip it on BOTH.
	if err := a.AllocateExact([]FiberID{"f2"}, Interval{0, 4}); err != nil {
		t.Fatalf("seed alloc: %v", err)
	}
	al, err := a.Allocate([]FiberID{"f1", "f2", "f3"}, 4, FirstFit)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if al.Interval.Start != 4 {
		t.Errorf("interval = %v, want start 4 (same slot on every fiber)", al.Interval)
	}
	for _, f := range []FiberID{"f1", "f2", "f3"} {
		m := a.FiberMap(f)
		for w := al.Interval.Start; w < al.Interval.End(); w++ {
			if !m.Used(w) {
				t.Errorf("pixel %d not used on fiber %s", w, f)
			}
		}
	}
}

func TestAllocatorConflict(t *testing.T) {
	a := NewAllocator(testGrid())
	if err := a.AllocateExact([]FiberID{"f1", "f2"}, Interval{8, 4}); err != nil {
		t.Fatalf("first alloc: %v", err)
	}
	err := a.AllocateExact([]FiberID{"f2", "f3"}, Interval{10, 4})
	if !errors.Is(err, ErrNoSpectrum) {
		t.Errorf("conflicting AllocateExact err = %v, want ErrNoSpectrum", err)
	}
	// f3 must be untouched by the failed atomic allocation.
	if a.FiberMap("f3").UsedPixels() != 0 {
		t.Error("failed allocation leaked pixels onto fiber f3")
	}
}

func TestAllocatorAtomicRollback(t *testing.T) {
	a := NewAllocator(testGrid())
	// A path that repeats a fiber cannot place the same interval twice;
	// the allocator must roll back and leave no residue.
	err := a.AllocateExact([]FiberID{"f1", "f1"}, Interval{0, 4})
	if err == nil {
		t.Fatal("AllocateExact with repeated fiber succeeded")
	}
	if a.FiberMap("f1").UsedPixels() != 0 {
		t.Errorf("rollback left %d pixels used", a.FiberMap("f1").UsedPixels())
	}
}

func TestAllocatorEmptyPath(t *testing.T) {
	a := NewAllocator(testGrid())
	if _, err := a.Allocate(nil, 4, FirstFit); err == nil {
		t.Error("Allocate with empty path succeeded")
	}
	if err := a.AllocateExact(nil, Interval{0, 4}); err == nil {
		t.Error("AllocateExact with empty path succeeded")
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator(Grid{PixelGHz: 12.5, Pixels: 8})
	path := []FiberID{"f1"}
	if _, err := a.Allocate(path, 8, FirstFit); err != nil {
		t.Fatalf("filling allocation: %v", err)
	}
	if _, err := a.Allocate(path, 1, FirstFit); !errors.Is(err, ErrNoSpectrum) {
		t.Errorf("allocation on full fiber err = %v, want ErrNoSpectrum", err)
	}
}

func TestAllocatorVerify(t *testing.T) {
	a := NewAllocator(testGrid())
	al1, err := a.Allocate([]FiberID{"f1", "f2"}, 6, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	al2, err := a.Allocate([]FiberID{"f2"}, 4, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify([]Allocation{al1, al2}); err != nil {
		t.Errorf("Verify on consistent state: %v", err)
	}
	// A forged duplicate claim must be caught.
	forged := Allocation{Fibers: []FiberID{"f2"}, Interval: al1.Interval}
	if err := a.Verify([]Allocation{al1, forged}); err == nil {
		t.Error("Verify accepted duplicate pixel ownership")
	}
	// An allocation whose pixels are not marked used must be caught.
	ghost := Allocation{Fibers: []FiberID{"f9"}, Interval: Interval{20, 4}}
	if err := a.Verify([]Allocation{ghost}); err == nil {
		t.Error("Verify accepted unmarked allocation")
	}
}

func TestAllocatorFork(t *testing.T) {
	a := NewAllocator(testGrid())
	if _, err := a.Allocate([]FiberID{"f1"}, 4, FirstFit); err != nil {
		t.Fatal(err)
	}
	c := a.Fork()
	if _, err := c.Allocate([]FiberID{"f1"}, 4, FirstFit); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate([]FiberID{"f2"}, 4, FirstFit); err != nil {
		t.Fatal(err)
	}
	if a.UsedPixels() != 4 || a.lookup("f2") >= 0 {
		t.Errorf("fork mutation leaked: original UsedPixels = %d, f2 numbered %v", a.UsedPixels(), a.lookup("f2") >= 0)
	}
	if c.UsedPixels() != 12 {
		t.Errorf("fork UsedPixels = %d, want 12", c.UsedPixels())
	}
}

func TestAllocatorBestFitReducesFragmentation(t *testing.T) {
	// Craft a map with a small and a large free run and verify BestFit
	// picks the small one, preserving the large run for wide channels.
	a := NewAllocator(Grid{PixelGHz: 12.5, Pixels: 32})
	path := []FiberID{"f1"}
	// Runs after seeding: [0,4) free, [4,8) used, [8,32) free.
	if err := a.AllocateExact(path, Interval{4, 4}); err != nil {
		t.Fatal(err)
	}
	al, err := a.Allocate(path, 4, BestFit)
	if err != nil {
		t.Fatal(err)
	}
	if al.Interval != (Interval{0, 4}) {
		t.Errorf("BestFit chose %v, want the tight run [0,4)", al.Interval)
	}
	// FirstFit would have chosen the same here; verify the contrast case:
	a2 := NewAllocator(Grid{PixelGHz: 12.5, Pixels: 32})
	// Runs: [0,24) free, [24,26) used, [26,32) free (len 6).
	if err := a2.AllocateExact(path, Interval{24, 2}); err != nil {
		t.Fatal(err)
	}
	alBF, err := a2.Allocate(path, 6, BestFit)
	if err != nil {
		t.Fatal(err)
	}
	if alBF.Interval != (Interval{26, 6}) {
		t.Errorf("BestFit chose %v, want exact-size run [26,32)", alBF.Interval)
	}
}

// Property: after any random sequence of allocations and releases across
// random multi-fiber paths, Verify succeeds on the live allocation set and
// per-fiber accounting matches the live set exactly.
func TestAllocatorInvariantProperty(t *testing.T) {
	fibers := []FiberID{"a", "b", "c", "d", "e"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(Grid{PixelGHz: 12.5, Pixels: 48})
		var live []Allocation
		for op := 0; op < 120; op++ {
			if rng.Intn(3) > 0 || len(live) == 0 {
				// Random sub-path of 1–3 distinct fibers.
				n := 1 + rng.Intn(3)
				perm := rng.Perm(len(fibers))[:n]
				path := make([]FiberID, n)
				for i, p := range perm {
					path[i] = fibers[p]
				}
				al, err := a.Allocate(path, 1+rng.Intn(10), Fit(rng.Intn(2)))
				if errors.Is(err, ErrNoSpectrum) {
					continue
				}
				if err != nil {
					return false
				}
				live = append(live, al)
			} else {
				i := rng.Intn(len(live))
				if a.Release(live[i]) != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		if a.Verify(live) != nil {
			return false
		}
		// Cross-check per-fiber pixel counts against the live set.
		perFiber := make(map[FiberID]int)
		for _, al := range live {
			for _, f := range al.Fibers {
				perFiber[f] += al.Interval.Count
			}
		}
		for _, f := range fibers {
			if a.FiberMap(f).UsedPixels() != perFiber[f] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Lookups must not write: a fiber that was only ever probed gets no
// number, and reads as all free.
func TestAllocatorReadsDoNotCreateFibers(t *testing.T) {
	a := NewAllocator(testGrid())
	if _, err := a.Allocate([]FiberID{"held"}, 4, FirstFit); err != nil {
		t.Fatal(err)
	}
	if iv, err := a.Find([]FiberID{"probed", "held"}, 4, FirstFit); err != nil || iv.Start != 4 {
		t.Errorf("Find across a probed fiber = %v, %v; want [4,8)", iv, err)
	}
	if m := a.FiberMap("probed"); m.UsedPixels() != 0 || m.FreePixels() != testGrid().Pixels {
		t.Errorf("FiberMap of a probed fiber: %d used", m.UsedPixels())
	}
	if a.Verify([]Allocation{{Fibers: []FiberID{"probed"}, Interval: Interval{0, 2}}}) == nil {
		t.Error("Verify accepted an allocation on a fiber that holds nothing")
	}
	if err := a.AllocateExact([]FiberID{"probed", "held"}, Interval{0, 4}); err == nil {
		t.Error("AllocateExact over held pixels succeeded")
	}
	if err := a.Release(Allocation{Fibers: []FiberID{"probed"}, Interval: Interval{0, 2}}); err == nil {
		t.Error("Release on a fiber that holds nothing succeeded")
	}
	if a.lookup("probed") >= 0 || a.lookup("held") < 0 {
		t.Errorf("numbered: probed %v, held %v; want only the fiber that holds an allocation", a.lookup("probed") >= 0, a.lookup("held") >= 0)
	}
}

// Find on the OR of the path's words must agree with a pixel-by-pixel
// scan of the fibers' maps, for both fits, on a grid whose runs cross
// word boundaries.
func TestAllocatorFindMatchesPixelScan(t *testing.T) {
	g := Grid{PixelGHz: 12.5, Pixels: 150}
	fibers := []FiberID{"a", "b", "c", "d", "never-used"}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(g)
		for op := 0; op < 60; op++ {
			n := 1 + rng.Intn(3)
			path := make([]FiberID, n)
			for i, p := range rng.Perm(len(fibers))[:n] {
				path[i] = fibers[p]
			}
			count := 1 + rng.Intn(40)
			joint := newBoolMap(g)
			for _, f := range path {
				m := a.FiberMap(f)
				for w := 0; w < g.Pixels; w++ {
					if m.Used(w) && !joint.used[w] {
						joint.Place(Interval{w, 1})
					}
				}
			}
			wantFirst, okFirst := joint.FirstFit(count)
			wantBest, okBest := joint.BestFit(count)
			if iv, err := a.Find(path, count, FirstFit); (err == nil) != okFirst || iv != wantFirst {
				t.Fatalf("seed %d: Find(%v, %d, first-fit) = %v, %v; pixel scan says %v, %v", seed, path, count, iv, err, wantFirst, okFirst)
			}
			if iv, err := a.Find(path, count, BestFit); (err == nil) != okBest || iv != wantBest {
				t.Fatalf("seed %d: Find(%v, %d, best-fit) = %v, %v; pixel scan says %v, %v", seed, path, count, iv, err, wantBest, okBest)
			}
			if okFirst && rng.Intn(4) > 0 {
				if err := a.AllocateExact(path, wantFirst); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// Release checks every fiber before it frees any: a path whose last fiber
// does not hold the interval leaves the earlier fibers as they were.
func TestAllocatorReleaseIsAtomic(t *testing.T) {
	a := NewAllocator(testGrid())
	iv := Interval{Start: 8, Count: 4}
	if err := a.AllocateExact([]FiberID{"f1", "f2"}, iv); err != nil {
		t.Fatal(err)
	}
	if err := a.AllocateExact([]FiberID{"f3"}, Interval{Start: 8, Count: 2}); err != nil {
		t.Fatal(err)
	}
	before := a.Fork()
	for _, last := range []FiberID{"f3", "holds-nothing"} {
		if err := a.Release(Allocation{Fibers: []FiberID{"f1", "f2", last}, Interval: iv}); err == nil {
			t.Fatalf("Release across %s, which does not hold %v, succeeded", last, iv)
		}
		for _, f := range []FiberID{"f1", "f2", "f3", "holds-nothing"} {
			if got, want := a.FiberMap(f).FreeRuns(), before.FiberMap(f).FreeRuns(); !reflect.DeepEqual(got, want) {
				t.Errorf("refused release across %s changed fiber %s: free runs %v, were %v", last, f, got, want)
			}
		}
	}
	if a.lookup("holds-nothing") >= 0 {
		t.Error("refused release numbered a fiber that holds nothing")
	}
	if err := a.Release(Allocation{Fibers: []FiberID{"f1", "f2"}, Interval: Interval{Start: 8, Count: 400}}); err == nil {
		t.Error("Release of an interval outside the grid succeeded")
	}
	if err := a.Release(Allocation{Fibers: []FiberID{"f1", "f2"}, Interval: iv}); err != nil {
		t.Errorf("Release of the held allocation: %v", err)
	}
	if a.FiberMap("f1").UsedPixels() != 0 || a.FiberMap("f2").UsedPixels() != 0 {
		t.Error("held allocation still occupies pixels after Release")
	}
}
