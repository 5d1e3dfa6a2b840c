package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Shared virtual machines change speed from minute to minute (co-tenants
// on shared cores, steal): on a 2-vCPU Xeon VM, by ±20% between runs of
// the same inputs. The benchmark therefore interleaves its measurement
// windows with a fixed reference kernel and scales every time to the host
// speed at which the kernel costs refCPUus of CPU per iteration. The
// kernel is stdlib-only, allocation-free and timed with per-thread CPU,
// so the middleware cannot change its cost: neither its code nor its
// background goroutines or GC run on the kernel's locked threads.
const refCPUus = 20.0

// refData is the kernel's fixed, read-only input.
var refData = func() (d struct {
	keys []string
	m    map[string]int
	base []int
	buf  []byte
}) {
	for i := 0; i < 1024; i++ {
		d.keys = append(d.keys, fmt.Sprintf("capability-%04d/service-%d", i*7919%1024, i))
	}
	d.m = make(map[string]int, len(d.keys))
	for i, k := range d.keys {
		d.m[k] = i
	}
	for i := 0; i < 512; i++ {
		d.base = append(d.base, (i*7919+13)%1021)
	}
	for i := 0; i < 4096; i++ {
		d.buf = append(d.buf, byte(i*31+7))
	}
	return d
}()

// refKernel does one iteration of map lookups, a sort and a hash over the
// fixed input, using scratch as its only writable memory.
func refKernel(i int, scratch []int) uint64 {
	var sum uint64
	for j := 0; j < 256; j++ {
		sum += uint64(refData.m[refData.keys[(i*7+j*13)%len(refData.keys)]])
	}
	copy(scratch, refData.base)
	slices.Sort(scratch)
	h := uint64(14695981039346656037)
	for _, b := range refData.buf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return sum + h + uint64(scratch[i%len(scratch)])
}

var refSink atomic.Uint64

// threadCPU is the calling OS thread's user+system CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refRound runs the kernel on workers locked threads for d and returns its
// CPU µs per iteration.
func refRound(workers int, d time.Duration) float64 {
	var stop atomic.Bool
	var mu sync.Mutex
	var cpu time.Duration
	var iters int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			scratch := make([]int, len(refData.base))
			var sink uint64
			n := 0
			c0 := threadCPU()
			for ; !stop.Load(); n++ {
				sink += refKernel(n, scratch)
			}
			c := threadCPU() - c0
			refSink.Add(sink)
			mu.Lock()
			cpu += c
			iters += n
			mu.Unlock()
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	if iters == 0 {
		return refCPUus
	}
	return float64(cpu) / 1e3 / float64(iters)
}
