package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailPercentiles are the candidates tailPercentile chooses from, each
// with the share of a sample beyond it, in thousandths.
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// tailPercentile returns the highest candidate percentile that still
// has at least ten samples beyond it in a sample of n, so a reported
// tail is never one or two outliers. It bottoms out at the median.
func tailPercentile(n int) float64 {
	for _, c := range tailPercentiles {
		if n*c.beyond >= 10*1000 {
			return c.p
		}
	}
	return 50
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter accumulates wall time, CPU time and allocation counts over the
// timed slots of a run; everything between stop and the next start
// (correctness checks, layer probes) is excluded.
type meter struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs float64
	// slotBytes is each timed slot's allocated bytes.
	slotBytes []float64

	cpu0 time.Duration
	ms0  runtime.MemStats
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuTime()
}

// stop closes a timed slot of the given wall time. bgReads background
// reads ran during it; their own allocations, at the per-read cost
// measured in set-up, are taken out, so the allocation metrics do not
// move with how many reads a slower or faster slot leaves room for.
func (m *meter) stop(wall time.Duration, bgReads int, perRead readCost) {
	m.wall += wall
	m.cpu += cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs += float64(ms.Mallocs-m.ms0.Mallocs) - float64(bgReads)*perRead.mallocs
	m.slotBytes = append(m.slotBytes, float64(ms.TotalAlloc-m.ms0.TotalAlloc)-float64(bgReads)*perRead.bytes)
}

// readCost is what one background read allocates, client and daemon
// side together.
type readCost struct {
	mallocs, bytes float64
}

// procStatusKB reads one "Key:   N kB" line of /proc/self/status.
func procStatusKB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb
			}
		}
	}
	return 0
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
