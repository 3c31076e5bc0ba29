//go:build race

package bench

// raceEnabled reports whether this test binary was built with -race, which
// runs the figure regenerations about ten times slower.
const raceEnabled = true
