package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// counters is one reading of the process-wide costs the end-to-end metrics
// are built from. Workers and the coordinator run in this process, so the
// process totals are the campaign's totals.
type counters struct {
	at         time.Time
	cpu        time.Duration // user + system
	writeBytes int64         // /proc/self/io write_bytes: bytes sent toward storage
	wchar      int64         // /proc/self/io wchar: bytes passed to write syscalls
	syscw      int64         // /proc/self/io syscw: write syscalls
	alloc      uint64        // cumulative Go heap bytes allocated
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func readCounters() (counters, error) {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	io, err := readProcKV("/proc/self/io")
	if err != nil {
		return c, err
	}
	c.writeBytes, c.wchar, c.syscw = io["write_bytes"], io["wchar"], io["syscw"]
	metrics.Read(allocSample)
	c.alloc = allocSample[0].Value.Uint64()
	c.at = time.Now()
	return c, nil
}

// peakRSSBytes reads the process's resident-set high-water mark.
func peakRSSBytes() (int64, error) {
	st, err := readProcKV("/proc/self/status")
	if err != nil {
		return 0, err
	}
	kb, ok := st["VmHWM"]
	if !ok {
		return 0, fmt.Errorf("/proc/self/status has no VmHWM")
	}
	return kb * 1024, nil
}

// readProcKV parses "key: value [unit]" lines, keeping integer values.
func readProcKV(path string) (map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		fields := strings.Fields(v)
		if len(fields) == 0 {
			continue
		}
		if n, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
			out[strings.TrimSpace(k)] = n
		}
	}
	return out, sc.Err()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
