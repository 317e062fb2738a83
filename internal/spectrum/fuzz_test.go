package spectrum

import (
	"reflect"
	"testing"
)

// FuzzMapOperations drives the bitset occupancy map and the []bool map it
// replaced with the same arbitrary operation stream: every answer must
// agree, accounting must stay consistent and no operation may panic. The
// grid spans three words with a partial last one, so runs and intervals
// cross word boundaries and meet the band edge.
func FuzzMapOperations(f *testing.F) {
	f.Add([]byte{1, 4, 0, 2, 8})
	f.Add([]byte{255, 0, 0, 9, 9, 3})
	f.Add([]byte{2, 60, 2, 70, 3, 7, 0, 63, 5, 1, 1, 0, 4, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		g := Grid{PixelGHz: 12.5, Pixels: 150}
		m, ref := NewMap(g), newBoolMap(g)
		var live []Interval
		for i := 0; i+1 < len(ops); i += 2 {
			a, b := int(ops[i]), int(ops[i+1])
			switch a % 6 {
			case 0: // place via first fit
				iv, err := m.FirstFit(1 + b%70)
				want, ok := ref.FirstFit(1 + b%70)
				if (err == nil) != ok || iv != want {
					t.Fatalf("FirstFit(%d) = %v, %v; []bool map says %v, %v", 1+b%70, iv, err, want, ok)
				}
				if err == nil {
					if err := m.Place(iv); err != nil {
						t.Fatalf("Place after FirstFit: %v", err)
					}
					ref.Place(iv)
					live = append(live, iv)
				}
			case 1: // release a live interval
				if len(live) > 0 {
					idx := b % len(live)
					if err := m.Release(live[idx]); err != nil {
						t.Fatalf("Release live: %v", err)
					}
					ref.Release(live[idx])
					live = append(live[:idx], live[idx+1:]...)
				}
			case 2: // arbitrary (possibly invalid) placement attempt
				iv := Interval{Start: (a/6)*8 + b%8 - 4, Count: b % 80}
				if got, want := m.CanPlace(iv), ref.CanPlace(iv); got != want {
					t.Fatalf("CanPlace(%v) = %v, []bool map says %v", iv, got, want)
				}
				if got, want := m.Place(iv) == nil, ref.Place(iv); got != want {
					t.Fatalf("Place(%v) succeeded = %v, []bool map says %v", iv, got, want)
				} else if got {
					live = append(live, iv)
				}
			case 3: // arbitrary (possibly invalid) release attempt
				iv := Interval{Start: (a/6)*8 + b%8 - 4, Count: 1 + b%20}
				if got, want := m.Release(iv) == nil, ref.Release(iv); got != want {
					t.Fatalf("Release(%v) succeeded = %v, []bool map says %v", iv, got, want)
				} else if got {
					// Part of the live set is gone; it only lower-bounds usage.
					live = nil
				}
			case 4: // best fit
				iv, err := m.BestFit(1 + b%70)
				want, ok := ref.BestFit(1 + b%70)
				if (err == nil) != ok || iv != want {
					t.Fatalf("BestFit(%d) = %v, %v; []bool map says %v, %v", 1+b%70, iv, err, want, ok)
				}
			case 5: // continue on clones
				m, ref = m.Clone(), ref.Clone()
			}
			if got, want := m.FreeRuns(), ref.FreeRuns(); !reflect.DeepEqual(got, want) {
				t.Fatalf("FreeRuns = %v, []bool map says %v", got, want)
			}
			if m.FreePixels() != ref.FreePixels() || m.UsedPixels() != ref.UsedPixels() {
				t.Fatalf("free/used = %d/%d, []bool map says %d/%d", m.FreePixels(), m.UsedPixels(), ref.FreePixels(), ref.UsedPixels())
			}
			for w := -1; w <= g.Pixels; w++ {
				if m.Used(w) != ref.Used(w) {
					t.Fatalf("Used(%d) = %v, []bool map says %v", w, m.Used(w), ref.Used(w))
				}
			}
			sum := 0
			for _, iv := range live {
				sum += iv.Count
			}
			if m.UsedPixels() < sum {
				t.Fatalf("accounting below live set: used %d < %d", m.UsedPixels(), sum)
			}
			if m.FreePixels()+m.UsedPixels() != g.Pixels {
				t.Fatalf("free+used != total")
			}
		}
	})
}
