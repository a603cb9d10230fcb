package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func p99(xs []float64) float64 { return quantile(xs, 0.99) }

// windowed splits values into n equal windows of span by the offset each
// was taken at; values taken after span are left out.
func windowed(at []time.Duration, vals []float64, span time.Duration, n int) [][]float64 {
	out := make([][]float64, n)
	for i, t := range at {
		if t >= 0 && t < span {
			w := int(int64(t) * int64(n) / int64(span))
			out[w] = append(out[w], vals[i])
		}
	}
	return out
}

// netOfSteal scales each window's times by (1 - its stolen share)^power.
func netOfSteal(windows [][]float64, stolen []float64, power float64) [][]float64 {
	for k, w := range windows {
		f := math.Pow(1-stolen[k], power)
		for i := range w {
			w[i] *= f
		}
	}
	return windows
}

// medianOver is the median over the non-empty windows of stat(window).
func medianOver(windows [][]float64, stat func([]float64) float64) float64 {
	var xs []float64
	for _, w := range windows {
		if len(w) > 0 {
			xs = append(xs, stat(w))
		}
	}
	return median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func durationOf(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// Steal correction. The benchmark runs on virtual machines whose host
// hands the vCPUs to other guests for stretches. While a vCPU that has
// work is held off, the wall clock runs on and the program does nothing,
// so every wall-clock time the end-to-end metrics report is taken net of
// that steal: over the interval a time was measured in, the share of the
// CPU time the process asked for that the host took,
//
//	stolen / (used + stolen),
//
// is taken off the time (and a rate is divided by one minus it). On a
// 2-vCPU guest at about 50% steal, grid passes took 280-450 ms raw and
// 224-232 ms net at the median, against 219-234 ms in calm runs. The
// correction sees only time the host took;
// a host that slows the vCPUs it does run still shows. Where the kernel
// reports no steal, the correction is zero and times are plain wall-clock
// times. README.md records how far the correction holds for the serving
// loops, whose vCPUs idle between requests.

// cpuClock is one reading of the two clocks the correction needs.
type cpuClock struct {
	used   time.Duration // CPU time of this process, all threads
	stolen time.Duration // time the host held this machine's vCPUs off
}

func readCPUClock() cpuClock {
	var c cpuClock
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.used = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.stolen = stolenSinceBoot()
	return c
}

// stolenSinceBoot is the steal column of /proc/stat's "cpu" line, summed
// over all vCPUs, in clock ticks of 10 ms (USER_HZ is 100 on Linux).
func stolenSinceBoot() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// stolenShare is the share of the CPU time demanded between readings a
// and b that the host took, capped at 0.9.
func stolenShare(a, b cpuClock) float64 {
	used, stolen := b.used-a.used, b.stolen-a.stolen
	if stolen <= 0 || used <= 0 {
		return 0
	}
	return min(float64(stolen)/float64(used+stolen), 0.9)
}

// stopwatch times an interval net of steal.
type stopwatch struct {
	t time.Time
	c cpuClock
}

func startWatch() stopwatch { return stopwatch{time.Now(), readCPUClock()} }

// elapsed is the wall-clock time since the watch started, net of steal.
func (s stopwatch) elapsed() time.Duration {
	d := time.Since(s.t)
	return time.Duration(float64(d) * (1 - stolenShare(s.c, readCPUClock())))
}

// clockWindows reads the CPU clocks at the n+1 edges of n equal windows
// of span from start, in a goroutine of its own.
type clockWindows struct {
	clocks []cpuClock
	done   sync.WaitGroup
}

func readWindows(start time.Time, span time.Duration, n int) *clockWindows {
	w := &clockWindows{clocks: make([]cpuClock, n+1)}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		for k := range w.clocks {
			time.Sleep(time.Until(start.Add(span * time.Duration(k) / time.Duration(n))))
			w.clocks[k] = readCPUClock()
		}
	}()
	return w
}

// wait returns the readings once the last edge has passed.
func (w *clockWindows) wait() []cpuClock {
	w.done.Wait()
	return w.clocks
}

// stolenShares is the stolen share of each window between successive
// readings.
func stolenShares(clocks []cpuClock) []float64 {
	out := make([]float64, len(clocks)-1)
	for k := range out {
		out[k] = stolenShare(clocks[k], clocks[k+1])
	}
	return out
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// releaseMemory collects garbage and returns freed memory to the OS
// between set-ups and before measuring, so every measurement starts from
// the same collector state and the peak resident size reflects one live
// set-up, not how far the collector lagged behind the last.
func releaseMemory() { debug.FreeOSMemory() }

// fingerprint identifies the machine and the code a result was measured
// on, so that results from different hosts are never compared unawares.
func fingerprint() map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from when the build
// saw one, otherwise a digest of the Go sources under the working
// directory (the benchmark always runs from the repository root).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// printTable writes metrics to standard error, one per line, sorted.
func printTable(title string, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "-- %s --\n", title)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}
