//go:build race

package comm

// raceEnabled reports whether this test binary was built with -race; the
// allocation assertions skip then, because the race runtime itself allocates.
const raceEnabled = true
