package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailStat is the highest percentile of a sample that still has ten
// samples beyond it: the 11th-largest value, at percentile 100*(n-10)/n.
// With ten samples or fewer no percentile qualifies, and the maximum is
// reported with Beyond < 10.
type tailStat struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 11
	if k < 0 {
		k = n - 1
	}
	return tailStat{Value: s[k], Percentile: 100 * float64(k+1) / float64(n), Samples: n, Beyond: n - 1 - k}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS sets the process's VmHWM back to its current RSS (Linux's
// clear_refs value 5); it reports whether the kernel accepted it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// hostProbe times a fixed CPU loop and a small fsync. Every run records it
// at its start and its end, so a run on a host that slowed down can be told
// apart from a regression in the code.
type hostProbe struct {
	CPUMs   float64 `json:"cpu_ms"`
	FsyncMs float64 `json:"fsync_ms"`
}

var probeSink uint64

func probeHost(dir string) hostProbe {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	probeSink = x
	p := hostProbe{CPUMs: ms(time.Since(t0))}
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return p
	}
	defer os.Remove(f.Name())
	defer f.Close()
	var lat []float64
	buf := make([]byte, 4096)
	for i := 0; i < 5; i++ {
		if _, err := f.WriteAt(buf, 0); err != nil {
			break
		}
		t := time.Now()
		if f.Sync() != nil {
			break
		}
		lat = append(lat, ms(time.Since(t)))
	}
	p.FsyncMs = median(lat)
	return p
}
