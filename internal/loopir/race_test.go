//go:build race

package loopir_test

// raceEnabled reports whether the tests run under the race detector,
// where the exhaustive kernel test subsamples.
const raceEnabled = true
