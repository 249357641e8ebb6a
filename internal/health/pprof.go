package health

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPUProfile opens path and starts the process CPU profiler into it,
// returning a stop function that ends the profile and closes the file. It is
// the shared -cpuprofile implementation for rtmacsim and figures. The CPU
// profiler is one per process: while it runs, the obs plane's
// /debug/pprof/profile returns an error, and the reverse.
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		return nil
	}, nil
}

// WriteHeapProfile forces a GC (so the profile reflects live objects, not
// garbage awaiting collection) and writes a heap profile to path. It is the
// shared -memprofile implementation for both CLIs.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	return nil
}
