//go:build race

package server

// raceEnabled reports whether the tests run under the race detector, whose
// sync.Pool drops items at random: allocation counts are not exact there.
const raceEnabled = true
