// Package profile writes the pprof profiles behind the commands'
// -cpuprofile and -memprofile flags.
package profile

import (
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Start starts a CPU profile at cpuPath and arranges a heap profile at
// memPath; either may be empty. The returned stop must run before the
// process exits — os.Exit skips deferred calls, so a command's error exits
// have to call it too. It flushes the CPU profile and snapshots the heap
// after a final GC. Only the first call does the work and reports its
// error; later calls return nil, so an exit path and a deferred call can
// both reach it.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	write := func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			runtime.GC() // material allocations only
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}
	var once sync.Once
	return func() (err error) {
		once.Do(func() { err = write() })
		return err
	}, nil
}
