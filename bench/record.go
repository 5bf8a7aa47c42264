package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"strings"
)

// record is the -json result file: a host fingerprint, so that results
// from different hosts are never compared, and every metric's
// distribution, so that spreads can be recomputed.
type record struct {
	Host      hostInfo    `json:"host"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Traced    bool        `json:"traced"`
	Workloads []runRecord `json:"workloads"`
}

type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

type runRecord struct {
	Workload  string         `json:"workload"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Problems  []string       `json:"problems,omitempty"`
	Metrics   []metricRecord `json:"metrics"`
}

type metricRecord struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	summary
}

func newRecord(seed int64, seconds float64, traced bool) *record {
	return &record{
		Host: hostInfo{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		},
		Seed: seed, Seconds: seconds, Traced: traced,
	}
}

// add appends a finished run. A metric without a sample distribution
// records its value as median and quartiles.
func (rc *record) add(r *run) {
	rr := runRecord{Workload: r.workload, Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Problems: r.problems}
	for _, d := range metricsFor(r.traced()) {
		m := r.metrics[d.Name]
		s := summary{N: m.n, Median: m.value, Q1: m.value, Q3: m.value}
		if len(m.samples) > 0 {
			s = summarize(m.samples)
		}
		rr.Metrics = append(rr.Metrics, metricRecord{Name: d.Name, Unit: d.Unit, Value: m.value, summary: s})
	}
	rc.Workloads = append(rc.Workloads, rr)
}

func (rc *record) write(path string) error {
	b, err := json.MarshalIndent(rc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("" where there
// is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
