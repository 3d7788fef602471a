package main

import (
	"sync"
	"time"
)

const (
	refTableWords = 1 << 19 // 4 MiB per goroutine: past one core's L2, inside the shared L3
	refSteps      = 2_000_000
)

// reference is the harness's own fixed piece of work, read beside every
// op so that the op's time can be stated against the machine's speed at
// that moment (see endToEnd in metrics.go for why). It is a dependent
// random walk of loads and stores over a table, which slows down when
// the neighbours of this VM take cache and memory bandwidth, as the
// measured programs do; a pure ALU loop was tried and does not track
// them. It runs on one goroutine per vCPU, like the children it stands
// beside. It shares no code with the measured program, so no change to
// the program moves it.
type reference struct {
	tables [][]uint64
	sink   uint64 // keeps the walks' results live
}

func newReference(nproc int) *reference {
	r := &reference{tables: make([][]uint64, nproc)}
	for i := range r.tables {
		r.tables[i] = make([]uint64, refTableWords)
	}
	return r
}

// read runs the reference once and returns the mean over the goroutines
// of each one's own duration.
func (r *reference) read() time.Duration {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total time.Duration
	)
	for _, t := range r.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			s := refWalk(t, refSteps)
			d := time.Since(start)
			mu.Lock()
			total += d
			r.sink += s
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total / time.Duration(len(r.tables))
}

func refWalk(t []uint64, n int) uint64 {
	x, s, mask := uint64(88172645463325252), uint64(0), uint64(len(t)-1)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += t[x&mask]
		t[(x>>24)&mask] = s
	}
	return s
}
