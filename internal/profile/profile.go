// Package profile gives every CLI the same on-demand CPU and heap
// profiles: -cpuprofile and -memprofile, written with runtime/pprof and
// read with `go tool pprof <binary> <file>`. Unset flags cost nothing.
package profile

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile destinations.
type Flags struct {
	CPU string // CPU profile covering Start to stop
	Mem string // heap profile written at stop
}

// Register binds -cpuprofile and -memprofile on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	fs.StringVar(&f.Mem, "memprofile", "", "write a heap profile to this file when the run ends")
}

// Start begins the CPU profile, if one was asked for, and returns the
// function that ends it and writes the heap profile. Call stop once,
// after the work to be profiled.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if f.CPU != "" {
		if cpu, err = os.Create(f.CPU); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close() //nolint:errcheck // the StartCPUProfile error is the one to report
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpuprofile: %w", err))
			}
		}
		if f.Mem != "" {
			if err := writeHeap(f.Mem); err != nil {
				errs = append(errs, fmt.Errorf("memprofile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeap writes a heap profile after a GC, so the in-use figures
// reflect live data rather than garbage awaiting collection.
func writeHeap(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(out); err != nil {
		out.Close() //nolint:errcheck // the write error is the one to report
		return err
	}
	return out.Close()
}
