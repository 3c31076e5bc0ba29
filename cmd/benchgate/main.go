// benchgate is the CI perf-regression gate: it compares a fresh benchmark run
// (the modeled figures of BENCH_spmspv.json and BENCH_spgemm.json plus the
// BENCH_alloc.json steady-state allocation report, all produced by gbbench)
// against the committed baseline and fails the build when
//
//   - any modeled point regresses by more than the tolerance (default 20%) —
//     the modeled seconds are deterministic simulation outputs, so the
//     comparison is stable across CI machines, or
//   - any kernel's steady-state allocs/op exceeds its baseline — the pooled
//     kernels are pinned at zero, so any allocation at all is a regression.
//
// Usage:
//
//	benchgate -baseline bench_baseline.json -bench BENCH_spmspv.json,BENCH_spgemm.json -alloc BENCH_alloc.json
//	benchgate -write-baseline -baseline bench_baseline.json -bench ... -alloc ...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchReport mirrors gbbench's -json output (the JSON file is the contract).
type benchReport struct {
	Scale   string `json:"scale"`
	Figures []struct {
		ID     string `json:"id"`
		Points []struct {
			Series  string  `json:"series"`
			X       int     `json:"x"`
			Seconds float64 `json:"seconds"`
		} `json:"points"`
	} `json:"figures"`
}

// allocReport mirrors gbbench's -alloc-out output.
type allocReport struct {
	Kernels []struct {
		Kernel      string  `json:"kernel"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"kernels"`
}

// baseline is the committed reference both axes are gated against.
type baseline struct {
	Scale          string             `json:"scale"`
	Tolerance      float64            `json:"tolerance"`
	ModeledSeconds map[string]float64 `json:"modeled_seconds"`
	AllocsPerOp    map[string]float64 `json:"allocs_per_op"`
}

func readJSON(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return json.NewDecoder(f).Decode(v)
}

// flatten keys every modeled point as "figID/series@x".
func flatten(r benchReport) map[string]float64 {
	out := map[string]float64{}
	for _, fig := range r.Figures {
		for _, p := range fig.Points {
			out[fmt.Sprintf("%s/%s@%d", fig.ID, p.Series, p.X)] = p.Seconds
		}
	}
	return out
}

func allocMap(r allocReport) map[string]float64 {
	out := map[string]float64{}
	for _, k := range r.Kernels {
		out[k.Kernel] = k.AllocsPerOp
	}
	return out
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func main() {
	var (
		basePath  = flag.String("baseline", "bench_baseline.json", "committed baseline file")
		benchPath = flag.String("bench", "BENCH_spmspv.json", "fresh gbbench -json outputs, comma-separated")
		allocPath = flag.String("alloc", "BENCH_alloc.json", "fresh gbbench -alloc-out output")
		tolerance = flag.Float64("tolerance", 0, "modeled-time regression tolerance; 0 uses the baseline's own (default 0.20)")
		write     = flag.Bool("write-baseline", false, "regenerate the baseline from the fresh reports instead of gating")
	)
	flag.Parse()

	var fresh benchReport // every report's figures, at the one scale they share
	for _, path := range strings.Split(*benchPath, ",") {
		var r benchReport
		if err := readJSON(path, &r); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: reading %s: %v\n", path, err)
			os.Exit(2)
		}
		if fresh.Scale != "" && r.Scale != fresh.Scale {
			fmt.Fprintf(os.Stderr, "benchgate: scale mismatch: %s is %q, earlier reports %q\n", path, r.Scale, fresh.Scale)
			os.Exit(2)
		}
		fresh.Scale = r.Scale
		fresh.Figures = append(fresh.Figures, r.Figures...)
	}
	var freshAlloc allocReport
	if err := readJSON(*allocPath, &freshAlloc); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: reading %s: %v\n", *allocPath, err)
		os.Exit(2)
	}
	modeled := flatten(fresh)
	allocs := allocMap(freshAlloc)

	if *write {
		tol := *tolerance
		if tol == 0 {
			tol = 0.20
		}
		b := baseline{Scale: fresh.Scale, Tolerance: tol, ModeledSeconds: modeled, AllocsPerOp: allocs}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: encoding baseline: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*basePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: writing %s: %v\n", *basePath, err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: wrote %s (%d modeled points, %d kernels, tolerance %.0f%%)\n",
			*basePath, len(modeled), len(allocs), tol*100)
		return
	}

	var base baseline
	if err := readJSON(*basePath, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: reading %s: %v\n", *basePath, err)
		os.Exit(2)
	}
	tol := base.Tolerance
	if *tolerance != 0 {
		tol = *tolerance
	}
	if tol <= 0 {
		tol = 0.20
	}
	if base.Scale != "" && fresh.Scale != "" && base.Scale != fresh.Scale {
		fmt.Fprintf(os.Stderr, "benchgate: scale mismatch: baseline %q vs fresh %q\n", base.Scale, fresh.Scale)
		os.Exit(2)
	}

	failures := 0
	for _, key := range sortedKeys(base.ModeledSeconds) {
		want := base.ModeledSeconds[key]
		got, ok := modeled[key]
		switch {
		case !ok:
			fmt.Printf("FAIL  %-50s baseline %.6gs, missing from fresh run\n", key, want)
			failures++
		case want == 0 && got > 0:
			fmt.Printf("FAIL  %-50s baseline 0s, fresh %.6gs\n", key, got)
			failures++
		case want > 0 && got > want*(1+tol):
			fmt.Printf("FAIL  %-50s %.6gs -> %.6gs (+%.1f%%, limit +%.0f%%)\n",
				key, want, got, (got/want-1)*100, tol*100)
			failures++
		}
	}
	for _, key := range sortedKeys(base.AllocsPerOp) {
		want := base.AllocsPerOp[key]
		got, ok := allocs[key]
		switch {
		case !ok:
			fmt.Printf("FAIL  alloc/%-44s baseline %.1f, missing from fresh run\n", key, want)
			failures++
		case got > want:
			fmt.Printf("FAIL  alloc/%-44s %.1f -> %.1f allocs/op (any increase fails)\n", key, want, got)
			failures++
		}
	}
	for _, key := range sortedKeys(allocs) {
		if _, ok := base.AllocsPerOp[key]; !ok {
			fmt.Printf("note  alloc/%-44s %.1f allocs/op (new kernel, not in baseline)\n", key, allocs[key])
		}
	}

	if failures > 0 {
		fmt.Printf("benchgate: %d regression(s) against %s (tolerance +%.0f%% modeled, 0 extra allocs)\n",
			failures, *basePath, tol*100)
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok — %d modeled points within +%.0f%%, %d kernels at or below baseline allocs\n",
		len(base.ModeledSeconds), tol*100, len(base.AllocsPerOp))
}
