//go:build race

package layout

// raceEnabled reports whether the tests run under the race detector,
// where the exhaustive guard test subsamples.
const raceEnabled = true
