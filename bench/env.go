package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nbody/internal/simd"
)

// header describes the host a result came from; results are only ever
// compared like against like.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Backend    string  `json:"simd"`
	GoVersion  string  `json:"go"`
	CPU        string  `json:"cpu"`
	Load1      float64 `json:"load1"`
}

func readHeader() header {
	h := header{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Backend:    simd.Active(),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

func (h header) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d simd=%s go=%s load1=%.2f cpu=%q",
		h.NProc, h.GOMAXPROCS, h.Backend, h.GoVersion, h.Load1, h.CPU)
}

// busy reports a host loaded enough to disturb timings.
func (h header) busy() bool { return h.Load1 > float64(h.NProc)/2 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windows is how many equal slices a timed section is cut into.
// latency_p50_ms and cpu_ms_per_op are computed per slice and the median
// slice is reported, so a disturbance of a second or two (a neighbour on
// the host, a collection, a slow wake-up phase) moves one slice and not the
// metric.
const windows = 8

// section brackets a timed section with the process-wide resource
// counters. ReadMemStats stops the world, so it runs only at the two ends;
// the CPU time is also read at every window boundary, by a goroutine that
// otherwise sleeps.
type section struct {
	start   time.Time
	window  time.Duration
	mallocs uint64
	marks   []time.Duration // CPU time at the start and at each window boundary reached
	stop    chan struct{}
	stopped chan struct{}
}

func beginSection(seconds float64) *section {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := &section{
		window:  time.Duration(seconds * float64(time.Second) / windows),
		mallocs: m.Mallocs,
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	s.start = time.Now()
	s.marks = append(s.marks, cpuTime())
	go func() {
		defer close(s.stopped)
		for k := 1; k < windows; k++ {
			select {
			case <-s.stop:
				return
			case <-time.After(time.Until(s.start.Add(time.Duration(k) * s.window))):
				s.marks = append(s.marks, cpuTime())
			}
		}
	}()
	return s
}

// usage is what a timed section consumed.
type usage struct {
	wall      time.Duration
	window    time.Duration
	windowCPU []time.Duration // per window; the last one runs to the end of the section
	mallocs   uint64
	heapMB    float64 // live heap after a forced collection
}

func (s *section) end() usage {
	wall, cpu := time.Since(s.start), cpuTime()
	close(s.stop)
	<-s.stopped
	u := usage{wall: wall, window: s.window}
	marks := append(s.marks, cpu)
	for k := 1; k < len(marks); k++ {
		u.windowCPU = append(u.windowCPU, marks[k]-marks[k-1])
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	u.mallocs = m.Mallocs - s.mallocs
	runtime.GC()
	runtime.ReadMemStats(&m)
	u.heapMB = float64(m.HeapAlloc) / 1e6
	return u
}

// windowOf is the window an operation that began `at` into the section
// belongs to; what runs past the nominal end belongs to the last window
// the section reached.
func (u usage) windowOf(at time.Duration) int {
	k := int(at / u.window)
	if k >= len(u.windowCPU) {
		k = len(u.windowCPU) - 1
	}
	return k
}
