// Package simd owns the runtime selection of the vectorized compute
// backend shared by internal/blas and internal/kernels. It probes the CPU
// once at startup (CPUID on amd64; nothing elsewhere), resolves the initial
// backend from the NBODY_BACKEND environment knob, and re-applies the
// choice to every registered kernel package when SetBackend switches it.
//
// The package sits at the bottom of the import graph (no dependencies), so
// blas, kernels, metrics, and cli can all consult it without cycles.
//
// Backend contract: results are bitwise reproducible *within* a backend —
// each backend pins its reduction order and repeated solves on reused state
// produce identical bits — while results *across* backends differ by
// summation-order rounding only, bounded by the differential test suite.
// SetBackend must not race with a running solve: switch backends between
// solves (commands do it before building a solver; tests do it
// sequentially).
package simd

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// Backend names. Auto is a request, not a backend: it resolves to the last
// supported entry of the table below.
const (
	Scalar = "scalar"
	AVX2   = "avx2"
	AVX512 = "avx512"
	Auto   = "auto"
)

// backends is the validation and capability table, ordered portable →
// fastest; Auto resolves to the last row whose probe passes. Adding a
// backend means adding a row here, an applier case in each kernel package,
// and the probe in cpu_GOARCH.go (see DESIGN.md §11).
var backends = []struct {
	name      string
	supported func() bool
}{
	{Scalar, func() bool { return true }},
	{AVX2, func() bool { return hasAVX2FMA }},
	{AVX512, func() bool { return hasAVX512 }},
}

var (
	mu       sync.Mutex
	current  atomic.Value // string; the active backend name
	appliers []func(name string)
)

func init() {
	name := os.Getenv("NBODY_BACKEND")
	if name == "" {
		name = Auto
	}
	resolved, err := resolve(name)
	if err != nil {
		// A bad env value must not make every binary unusable; warn and
		// fall back to auto-detection.
		fmt.Fprintf(os.Stderr, "simd: ignoring NBODY_BACKEND: %v\n", err)
		resolved, _ = resolve(Auto)
	}
	current.Store(resolved)
}

// resolve validates a backend request against the table and returns the
// concrete backend name it denotes.
func resolve(name string) (string, error) {
	if name == Auto {
		best := Scalar
		for _, b := range backends {
			if b.supported() {
				best = b.name
			}
		}
		return best, nil
	}
	for _, b := range backends {
		if b.name != name {
			continue
		}
		if !b.supported() {
			return "", fmt.Errorf("backend %q is not supported on this CPU (supported: %v)", name, Supported())
		}
		return name, nil
	}
	return "", fmt.Errorf("unknown backend %q (valid: %s)", name, Help())
}

// Active returns the name of the backend currently applied to the kernel
// packages.
func Active() string { return current.Load().(string) }

// Supported returns the backends this process can run, portable first.
func Supported() []string {
	var s []string
	for _, b := range backends {
		if b.supported() {
			s = append(s, b.name)
		}
	}
	return s
}

// Help returns the flag-help enumeration of accepted names, Auto included.
func Help() string {
	h := Auto
	for _, b := range backends {
		h += "|" + b.name
	}
	return h
}

// Register adds a kernel package's backend applier and immediately invokes
// it with the active backend, so package init order does not matter. The
// applier must tolerate being called again on every later SetBackend.
func Register(apply func(name string)) {
	mu.Lock()
	defer mu.Unlock()
	apply(Active())
	appliers = append(appliers, apply)
}

// SetBackend validates name ("auto" resolves to the fastest supported
// backend) and re-applies the choice to every registered kernel package.
// It must not be called concurrently with a running solve.
func SetBackend(name string) error {
	mu.Lock()
	defer mu.Unlock()
	resolved, err := resolve(name)
	if err != nil {
		return err
	}
	current.Store(resolved)
	for _, f := range appliers {
		f(resolved)
	}
	return nil
}
