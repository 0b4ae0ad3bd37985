//go:build !race

package loopir_test

const raceEnabled = false
