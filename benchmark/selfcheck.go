package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec mirrors the parts of BENCHMARK.json this program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// worsening is the share by which `now` is worse than `base` in the
// metric's direction; negative when it improved.
func worsening(m specMetric, base, now float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - now) / base
	}
	return (now - base) / base
}

// selfcheck is the acceptance test anyone can run: every workload twice,
// the second pass in reverse order, and no end-to-end metric of either
// pass may be worse than the other's by more than its BENCHMARK.json bound.
// It runs from the repository root (where BENCHMARK.json lives).
func selfcheck(o options) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -selfcheck: %v\n", err)
		return 2
	}
	o.trace = "0"
	passes := [2]map[string]*result{{}, {}}
	for p := range passes {
		for i := range workloads {
			w := workloads[i]
			if p == 1 {
				w = workloads[len(workloads)-1-i]
			}
			res, err := child(o, w.name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: -selfcheck: %v\n", err)
				return 2
			}
			if !res.Correct {
				fmt.Printf("selfcheck: %s failed its correctness gate\n", w.name)
				return 1
			}
			passes[p][w.name] = res
		}
	}
	code := 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := passes[0][w.name].Metrics[m.Name].Value, passes[1][w.name].Metrics[m.Name].Value
			worse := max(worsening(m, a, b), worsening(m, b, a))
			verdict := "ok"
			if worse > m.Bound {
				verdict = "OUT OF BOUND"
				code = 1
			}
			fmt.Printf("selfcheck: %-20s %-20s %14.6g %14.6g  differ %6.2f%%  bound %5.1f%%  %s\n",
				w.name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
