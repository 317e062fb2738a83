//go:build race

package solver_test

// raceDetectorOn reports whether this test binary was built with -race,
// so the full-size exact solves, which the detector slows by an order of
// magnitude and which have no concurrency of their own at one worker, can
// skip.
const raceDetectorOn = true
