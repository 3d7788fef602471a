//go:build race

package service

// raceEnabled: the race detector makes sync.Pool drop what is put back
// and instruments the heap, so a test that measures either skips.
const raceEnabled = true
