package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak live heap — runtime/metrics
// /gc/heap/live:bytes, the heap the last GC marked live — per window:
// every `every` while it runs (0 = only at Cut), reporting the median of
// the windows' peaks, so one window's unlucky GC timing does not set the
// result.
type heapSampler struct {
	mu    sync.Mutex
	peak  uint64
	peaks []float64
	stop  chan struct{}
	done  sync.WaitGroup
}

const heapMetric = "/gc/heap/live:bytes"

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: readMetric(heapMetric)}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		last := time.Now()
		for {
			select {
			case <-h.stop:
				return
			case now := <-t.C:
				h.observe()
				if every > 0 && now.Sub(last) >= every {
					h.Cut()
					last = now
				}
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := readMetric(heapMetric)
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// Cut closes the current window.
func (h *heapSampler) Cut() {
	h.observe()
	h.mu.Lock()
	h.peaks = append(h.peaks, float64(h.peak)/1e6)
	h.peak = 0
	h.mu.Unlock()
	h.observe()
}

// Stop ends sampling and returns the median window peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.done.Wait()
	h.Cut()
	return median(h.peaks)
}

// runtimeCounters are the Go runtime's cumulative allocation and GC
// counters, read at window boundaries.
type runtimeCounters struct{ allocBytes, gcCycles uint64 }

func readRuntime() runtimeCounters {
	return runtimeCounters{
		allocBytes: readMetric("/gc/heap/allocs:bytes"),
		gcCycles:   readMetric("/gc/cycles/total:gc-cycles"),
	}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles}
}

// stamp identifies the machine and code a result was measured on.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Seed       uint64 `json:"seed"`
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Params     any    `json:"params"`
	// HostProbeMs is hostProbe before and after the workload.
	HostProbeMs []float64 `json:"host_probe_ms"`
}

func machineStamp(root string) stamp {
	s := stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitHead(root),
		Source:     sourceDigest(root),
	}
	s.HostProbeMs = []float64{hostProbe()}
	return s
}

var probeSink float64

// hostProbe times a fixed single-goroutine loop that no change to the
// measured program can move, median of 5 repeats, in milliseconds. On a
// shared host it tells runs made while the machine itself was slower
// apart from runs of slower code.
func hostProbe() float64 {
	var ds []float64
	x, acc := uint64(0x9e3779b97f4a7c15), 0.0
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < 1<<22; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += float64(x>>11) * 0x1p-53
		}
		ds = append(ds, ms(time.Since(t0)))
	}
	probeSink = acc
	return median(ds)
}

// gitHead reads the checked-out commit from root/.git without running
// git; "unknown" outside a git checkout.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
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

// sourceDigest hashes the measured program's Go sources and module file,
// which identifies the code even in a checkout that is not a git
// repository. The benchmark's own directory is included.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
