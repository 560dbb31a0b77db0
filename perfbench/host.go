package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
)

// HostShape is what decides which replay schedule runs: the CPU count the
// executor sizes its parallel budget from, GOMAXPROCS (which switches the
// pipelined oracle annotator on), the toolchain, and how the workload's
// budget was split between programs and each program's broadcast workers.
type HostShape struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Budget mirrors the executor's parallel budget, max(NumCPU, 2).
	Budget int `json:"executor_budget"`
	// ProgramLanes is how many programs replay at once; PerProgram the
	// broadcast workers each gets (budget / lanes). Serve-mix jobs vary in
	// program count, so there the split is listed per program count.
	ProgramLanes int            `json:"program_lanes,omitempty"`
	PerProgram   int            `json:"per_program_workers,omitempty"`
	SplitByProgs map[string]int `json:"per_program_workers_by_job_programs,omitempty"`
}

func hostShape() HostShape {
	return HostShape{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Budget:     executorBudget(),
	}
}

// executorBudget mirrors experiments' maxParallel: the parallel budget a
// run divides among its programs.
func executorBudget() int { return max(runtime.NumCPU(), 2) }

// split returns the executor's program lanes and per-program workers for
// a run replaying active programs.
func split(active int) (lanes, perProg int) {
	b := executorBudget()
	lanes = min(max(active, 1), b)
	return lanes, max(b/lanes, 1)
}

// memWindow measures one timed window's memory: the peak resident set and
// the bytes allocated. Begin collects garbage and returns freed pages to
// the OS, then resets the kernel's high-water mark, so one window's peak
// never carries into the next.
type memWindow struct {
	alloc0 uint64
}

func beginMem() memWindow {
	debug.FreeOSMemory()
	// "5" resets VmHWM to the current RSS (Linux >= 4.0). Where it is
	// refused the peak degrades to the process-lifetime peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memWindow{alloc0: ms.TotalAlloc}
}

// end returns the window's peak RSS and allocation, both in MB.
func (w memWindow) end() (peakMB, allocMB float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(peakRSSKB()) / 1024, float64(ms.TotalAlloc-w.alloc0) / (1 << 20)
}

// peakRSSKB reads VmHWM from /proc/self/status (0 where unavailable).
func peakRSSKB() int64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(buf))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}

// gcSample is a runtime/metrics reading of GC cycles and CPU time.
type gcSample struct {
	cycles       uint64
	gcCPU, total float64
}

var gcMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var g gcSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.total = s[2].Value.Float64()
	}
	return g
}

// gcDelta returns the GC cycles and GC share of CPU time between a and b.
func gcDelta(a, b gcSample) (cycles float64, cpuShare float64) {
	return float64(b.cycles - a.cycles), ratioOr0(b.gcCPU-a.gcCPU, b.total-a.total)
}
