//go:build race

package serve

// raceEnabled reports a build under the race detector, where every
// allocation also pays for shadow memory; tests that allocate heavily
// to measure something other than races scale their work down by it.
const raceEnabled = true
