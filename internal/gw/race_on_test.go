//go:build race

package gw

// raceEnabled reports that the race detector is on: it allocates on the
// program's behalf, so allocation ceilings are measured without it.
const raceEnabled = true
