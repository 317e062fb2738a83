package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machine is the block recorded with every result set: a number only
// counts with the host it was taken on.
type machine struct {
	Nproc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func machineInfo() machine {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return machine{
		Nproc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: kernel, Commit: commitID("."),
	}
}

// commitID reads HEAD from the checkout's .git by hand (no git binary, no
// build-time stamping needed); "unknown" outside a repository, which is
// where the benchmark driver runs.
func commitID(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	b, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// checkWorkers is the hard guard against measuring oversubscription: the
// harness never runs more solver, sweep or client workers than cores.
func checkWorkers(what string, n int) error {
	if nproc := runtime.NumCPU(); n > nproc {
		return fmt.Errorf("%s = %d exceeds nproc = %d: refusing to measure oversubscription", what, n, nproc)
	}
	if n < 1 {
		return fmt.Errorf("%s = %d: need at least one", what, n)
	}
	return nil
}

// cpuTime is user+system CPU consumed by this process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 { return statusMB("VmHWM:") }

// statusMB reads one kB-valued field of /proc/self/status, in MB.
func statusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field) {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// memCounters snapshots the allocator and collector counters the
// proc.* per-layer metrics are deltas of.
type memCounters struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{totalAlloc: m.TotalAlloc, numGC: m.NumGC, pauseNs: m.PauseTotalNs}
}

// rssSampler reads the resident set size (VmRSS) every rssPeriod over the
// timed phase. Its 90th percentile is the memory metric: the high-water
// mark (VmHWM) is one sample, the largest, and on the figures workload it
// reads 32 to 57 MB for the same work depending on where one collection
// cycle fell, while the 90th percentile of 400 samples holds within 2%.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   sample
}

const rssPeriod = 50 * time.Millisecond

func startRSSSampler() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			r.mb = append(r.mb, statusMB("VmRSS:"))
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// finish stops the sampler and returns its readings.
func (r *rssSampler) finish() sample {
	close(r.stop)
	<-r.done
	return r.mb
}
