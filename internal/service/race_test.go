//go:build race

package service

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a share of its entries at random, so allocation budgets that
// count on warm pools do not hold there.
const raceEnabled = true
