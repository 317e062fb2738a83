//go:build !race

package solver_test

const raceDetectorOn = false
