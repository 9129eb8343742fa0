package experiments

import (
	"sync"
	"sync/atomic"
)

// RunParallel executes fn(0) … fn(n-1) across min(k.Parallelism(), n)
// workers and returns the lowest-index error, if any. Every index runs
// regardless of other indexes' failures, and on one worker the indexes
// run in order — so a figure built from independent experiment points
// (each with its own vclock.Clock and systems.System) produces identical
// results serial or parallel: callers store each point's result at its
// index and never share mutable state across points.
func RunParallel(k *RunKnobs, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	workers := k.Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
