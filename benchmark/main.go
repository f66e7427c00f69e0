// Command benchmark is the repository's performance benchmark: it builds
// cmd/matchd, starts real matchd processes, drives them through the
// public fpis API, checks every answer, and prints each metric by name
// with its unit. See README.md in this directory.
//
//	go run -C benchmark . [-workload NAME] [-seed 2013] [-seconds 16] [-trace 1] [-out DIR]
//
// BENCHMARK.json at the repository root runs it through run.sh, which
// keeps the Go build cache inside the checkout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
	}
	os.Exit(code)
}

// repoRoot finds the checkout: the benchmark is started either from the
// root (run.sh) or from its own directory (go run -C benchmark).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "matchd", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cmd/matchd not found: run from the repository root or from benchmark/")
}

func buildMatchd(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/matchd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build matchd: %w", err)
	}
	return nil
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// resultLine is the machine-readable last line of a run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run() (int, error) {
	workloadName := flag.String("workload", "", "run one workload (default: all four)")
	seed := flag.Uint64("seed", 2013, "seed every input is derived from")
	seconds := flag.Float64("seconds", 16, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes trace.jsonl")
	outDir := flag.String("out", "", "directory for trace.jsonl and last results (default .bench_build/out)")
	flag.Parse()
	if flag.NArg() > 0 {
		return 2, fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("-seconds must be positive and -trace 0 or 1")
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", *workloadName)
		}
		selected = []workload{w}
	}

	root, err := repoRoot()
	if err != nil {
		return 1, err
	}
	build := filepath.Join(root, ".bench_build")
	if *outDir == "" {
		*outDir = filepath.Join(build, "out")
	}
	runDir := filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	for _, dir := range []string{*outDir, runDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 1, err
		}
	}
	defer os.RemoveAll(runDir)
	matchd := filepath.Join(build, "matchd")
	if err := buildMatchd(root, matchd); err != nil {
		return 1, err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("fpinterop benchmark  commit=%s go=%s nproc=%d GOMAXPROCS=%d cpu=%q\n",
		commit(root), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel())
	fmt.Printf("seed=%d seconds=%g trace=%d clients=%d windows=%d\n", *seed, *seconds, *trace, clients, windowsPerPhase)

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, matchd: matchd,
		runDir: runDir, outDir: *outDir, tr: &tracer{}, out: os.Stdout}
	var results []*runResult
	for _, w := range selected {
		fmt.Printf("\n== %s: %s\n", w.name, w.why)
		t0 := time.Now()
		res, err := runWorkload(ctx, w, cfg)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", w.name, err)
		}
		results = append(results, res)
		if cfg.trace {
			reportOverhead(res, cfg.outDir)
		} else {
			for _, def := range endToEndMetrics {
				st := res.endToEnd[def.name]
				fmt.Printf("  %-28s %10.4f %-6s", def.name, st.Value, def.unit)
				if len(st.Windows) > 0 {
					fmt.Printf(" window spread %5.1f%% %.4g", 100*st.Spread, st.Windows)
				}
				fmt.Println()
			}
			for _, def := range perLayerMetrics {
				if v, ok := res.perLayer[def.name]; ok {
					fmt.Printf("  %-28s %10.4f %-6s not gated\n", def.name, v, def.unit)
				}
			}
		}
		fmt.Printf("  attempted %d  failed %d  fail_ratio %.6f  (%.1fs wall)\n",
			res.attempted, res.failed, float64(res.failed)/float64(res.attempted), time.Since(t0).Seconds())
		for _, p := range res.problems {
			fmt.Printf("  PROBLEM %s\n", p)
		}
	}

	if cfg.trace {
		fmt.Printf("\n== layer ladder (in process, 1k and 10k galleries)\n")
		ladderMetrics, err := runLadder(ctx, *seed, runDir, cfg.tr)
		if err != nil {
			return 1, fmt.Errorf("ladder: %w", err)
		}
		for _, res := range results {
			for name, v := range ladderMetrics {
				res.perLayer[name] = v
			}
			fmt.Printf("\n== per-layer metrics, %s\n", res.workload)
			for _, def := range perLayerMetrics {
				fmt.Printf("  %-36s %16.4f %s\n", def.name, res.perLayer[def.name], def.unit)
			}
		}
		path := filepath.Join(cfg.outDir, "trace.jsonl")
		if err := cfg.tr.write(path); err != nil {
			return 1, err
		}
		fmt.Printf("\n%d spans written to %s\n", len(cfg.tr.spans), path)
	}

	// The machine-readable result: one line per workload, last.
	exit := 0
	for _, res := range results {
		line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
			Metrics: map[string]metricValue{}}
		if cfg.trace {
			for _, def := range perLayerMetrics {
				line.Metrics[def.name] = metricValue{Value: res.perLayer[def.name], Unit: def.unit}
			}
		} else {
			for _, def := range endToEndMetrics {
				line.Metrics[def.name] = metricValue{Value: res.endToEnd[def.name].Value, Unit: def.unit}
			}
			if err := saveLast(cfg.outDir, res.workload, line); err != nil {
				return 1, err
			}
		}
		for name, m := range line.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				// A phase with no answered request has no latency; JSON
				// cannot say so, and the run already counts as failed.
				line.Metrics[name] = metricValue{Unit: m.Unit}
				line.Correct = false
				exit = 1
			}
		}
		out, err := json.Marshal(line)
		if err != nil {
			return 1, err
		}
		fmt.Println(string(out))
		if res.failed > 0 {
			exit = 1
		}
	}
	return exit, nil
}

// saveLast keeps the latest untraced result of a workload, so that a
// later traced run can print the tracing overhead against it.
func saveLast(dir, workload string, line resultLine) error {
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".last.json"), data, 0o644)
}

// reportOverhead prints traced minus untraced identify_p50_ms when an
// untraced result of the same workload is at hand.
func reportOverhead(res *runResult, dir string) {
	traced := res.endToEnd["identify_p50_ms"].Value
	data, err := os.ReadFile(filepath.Join(dir, res.workload+".last.json"))
	var last resultLine
	if err != nil || json.Unmarshal(data, &last) != nil {
		fmt.Printf("  traced identify_p50_ms %.4f ms (run untraced first to see the tracing overhead)\n", traced)
		return
	}
	untraced := last.Metrics["identify_p50_ms"].Value
	fmt.Printf("  tracing overhead: identify_p50_ms traced %.4f - untraced %.4f = %+.4f ms\n", traced, untraced, traced-untraced)
}
