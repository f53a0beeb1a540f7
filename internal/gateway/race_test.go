//go:build race

package gateway

// raceEnabled reports a -race build. The race detector drops a random
// quarter of sync.Pool puts, so allocation gates do not hold under it.
const raceEnabled = true
