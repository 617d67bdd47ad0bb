//go:build race

package exec

// raceEnabled reports that the race detector is on; sync.Pool then drops
// a quarter of all Puts at random, so pool-reuse assertions do not hold.
const raceEnabled = true
