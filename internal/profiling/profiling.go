// Package profiling wraps runtime/pprof: cmd/experiments exposes its
// -cpuprofile/-memprofile flags through StartCPU and WriteHeap, and chopperd
// mounts the live pprof endpoints via AttachPprof.
package profiling

import (
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

// StartCPU begins a CPU profile written to path and returns a stop function.
// An empty path is a no-op.
func StartCPU(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("profiling: create cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("profiling: start cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		_ = f.Close()
	}, nil
}

// WriteHeap writes an allocation profile to path after a final GC, so the
// numbers reflect live and cumulative allocations up to this point. An empty
// path is a no-op.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("profiling: create mem profile: %w", err)
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		_ = f.Close()
		return fmt.Errorf("profiling: write mem profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("profiling: close mem profile: %w", err)
	}
	return nil
}

// AttachPprof mounts the standard pprof handlers under prefix (normally
// "/debug/pprof") on mux, without touching http.DefaultServeMux — the
// reason this avoids the net/http/pprof import-for-side-effect idiom.
func AttachPprof(mux *http.ServeMux, prefix string) {
	prefix = strings.TrimSuffix(prefix, "/")
	mux.HandleFunc(prefix+"/", httppprof.Index)
	mux.HandleFunc(prefix+"/cmdline", httppprof.Cmdline)
	mux.HandleFunc(prefix+"/profile", httppprof.Profile)
	mux.HandleFunc(prefix+"/symbol", httppprof.Symbol)
	mux.HandleFunc(prefix+"/trace", httppprof.Trace)
}
