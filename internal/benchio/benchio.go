// Package benchio is the one writer of the benchmark ledger
// (BENCH_results.json): every command that records a measurement
// merges its entry under a key, keeping every other entry, and tags
// the entry with the machine it ran on.
package benchio

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// Merge stores value under key in the JSON object file at path,
// keeping every other entry. A dotted key ("micro.RunPacket") names a
// nested object, created as needed. A missing file starts empty.
func Merge(path, key string, value any) error {
	doc := map[string]any{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &doc); err != nil {
			return fmt.Errorf("existing %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	parts := strings.Split(key, ".")
	obj := doc
	for _, p := range parts[:len(parts)-1] {
		next, ok := obj[p].(map[string]any)
		if !ok {
			next = map[string]any{}
			obj[p] = next
		}
		obj = next
	}
	obj[parts[len(parts)-1]] = value
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Machine identifies the host a measurement ran on.
type Machine struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

// Host describes the running machine. CPU is the first model name in
// /proc/cpuinfo, or GOARCH where that file does not exist.
func Host() Machine {
	m := Machine{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPU: runtime.GOARCH, Go: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return m
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			m.CPU = strings.TrimSpace(v)
			break
		}
	}
	return m
}

// Spread summarizes repeated measurements of one quantity.
type Spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// SpreadOf returns the median, min and max of xs (zero for none).
func SpreadOf(xs []float64) Spread {
	if len(xs) == 0 {
		return Spread{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return Spread{Median: med, Min: s[0], Max: s[len(s)-1], N: len(s)}
}
