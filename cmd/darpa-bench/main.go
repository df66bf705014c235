// Command darpa-bench is the repository's one benchmark harness: four
// workloads, nine end-to-end metrics, one result schema, and — in a second,
// traced pass — per-layer numbers and a latency budget from HTTP bytes to
// decoration JSON. Every layer is measured from outside, through exported
// functions and the counters the program already exposes. See README.md.
//
//	go run ./cmd/darpa-bench -seed 1 -out result.json            # all four workloads
//	go run ./cmd/darpa-bench -seed 1 -trace trace.json           # plus the traced pass
//	go run ./cmd/darpa-bench -quick                              # a few seconds each, no bounds
//	go run ./cmd/darpa-bench -compare a.json b.json              # verdict per (workload, metric)
//	go run ./cmd/darpa-bench --workload serve-hires --seed 3 --seconds 20 --trace 0
//
// The last form is the acceptance driver's: one workload, one pass, and a
// one-line JSON result as the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
)

// defaultSeconds is how long one workload measures; BENCHMARK.json's
// run_seconds says the same (a unit test holds them together).
const (
	defaultSeconds = 20
	quickSeconds   = 3
)

func main() {
	workload := flag.String("workload", "", "run one workload in this process (`name`); default: all four, each in a process of its own")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 0, "seconds each workload measures (default 20, or 3 with -quick)")
	trace := flag.String("trace", "0", "`0`: end-to-end pass; `1`: traced per-layer pass; a file name: both, spans written there")
	out := flag.String("out", "", "append this run to a result `file`")
	quick := flag.Bool("quick", false, "small corpus, 5 000-device fleet, 3 s per workload; bounds do not apply")
	compare := flag.Bool("compare", false, "compare two result files given as arguments, using the bounds in BENCHMARK.json")
	resultFile := flag.String("result-file", "", "single-workload mode: also write the full result to this `file`")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := func() int {
		defer stop()
		if *compare {
			if flag.NArg() != 2 {
				fmt.Fprintln(os.Stderr, "usage: darpa-bench -compare a.json b.json")
				return 2
			}
			return runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
		if *seconds <= 0 {
			*seconds = defaultSeconds
			if *quick {
				*seconds = quickSeconds
			}
		}
		// Everything below runs the program under test from its source tree.
		if _, err := os.Stat("go.mod"); err != nil {
			fmt.Fprintln(os.Stderr, "darpa-bench: run from the repository root (no go.mod here)")
			return 2
		}
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "darpa-bench:", err)
			return 2
		}
		env := runEnv{seed: *seed, seconds: *seconds, quick: *quick, sz: fullSizing, out: os.Stdout}
		if *quick {
			env.sz = quickSizing
		}
		if *workload != "" {
			return runOne(ctx, *workload, env, *trace, *resultFile)
		}
		return runAll(ctx, env, *trace, *out)
	}()
	os.Exit(code)
}

// runOne runs one pass of one workload in this process and ends with the
// driver's result line.
func runOne(ctx context.Context, name string, env runEnv, trace, resultFile string) int {
	if !slices.Contains(workloads, name) {
		fmt.Fprintf(os.Stderr, "darpa-bench: unknown workload %q (have %v)\n", name, workloads)
		return 2
	}
	var res *workloadResult
	var err error
	switch trace {
	case "0":
		res, err = runUntraced(ctx, name, env)
	case "1":
		res, err = runTraced(ctx, name, env)
	default:
		env.traceFile = trace
		res, err = runTraced(ctx, name, env)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "darpa-bench: %s: %v\n", name, err)
		return 1
	}
	if gaps := res.missing(); len(gaps) > 0 {
		res.fail("metrics not measured: %v", gaps)
	}
	res.print(env.out)
	if resultFile != "" {
		if err := writeJSON(resultFile, res); err != nil {
			fmt.Fprintln(os.Stderr, "darpa-bench:", err)
			return 1
		}
	}
	fmt.Fprintln(env.out, res.driverLine())
	if !res.Correct {
		return 1
	}
	return 0
}

func runUntraced(ctx context.Context, name string, env runEnv) (*workloadResult, error) {
	switch name {
	case "audit-batch":
		return runAudit(ctx, env)
	case "fleet-50k":
		return runFleet(ctx, env)
	}
	return runServe(ctx, name, env)
}

// runAll is the one command: every workload, each in a fresh process of this
// same binary — which is exactly how the acceptance driver runs them, so CPU
// and peak memory are each workload's own.
func runAll(ctx context.Context, env runEnv, trace, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "darpa-bench:", err)
		return 1
	}
	passes := []string{"0"}
	switch trace {
	case "0":
	case "1":
		passes = []string{"0", "1"}
	default:
		passes = []string{"0", "file"}
	}
	r := run{Seed: env.seed}
	spans := map[string]json.RawMessage{}
	failed := false
	for _, name := range workloads {
		for _, pass := range passes {
			resPath := filepath.Join(buildDir, fmt.Sprintf("result-%s-%d.json", name, os.Getpid()))
			spanPath := filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.json", name, os.Getpid()))
			traceArg := pass
			if pass == "file" {
				traceArg = spanPath
			}
			args := []string{"-workload", name, "-seed", fmt.Sprint(env.seed), "-seconds", fmt.Sprint(env.seconds), "-trace", traceArg, "-result-file", resPath}
			if env.quick {
				args = append(args, "-quick")
			}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			// Interrupts reach the child through the process group; give it
			// the chance to stop its own server before it is killed.
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
			runErr := cmd.Run()
			var res workloadResult
			raw, readErr := os.ReadFile(resPath)
			os.Remove(resPath)
			if readErr == nil {
				readErr = json.Unmarshal(raw, &res)
			}
			if readErr != nil {
				fmt.Fprintf(os.Stderr, "darpa-bench: %s produced no result (%v)\n", name, errors.Join(runErr, readErr))
				return 1
			}
			r.Workloads = append(r.Workloads, &res)
			failed = failed || runErr != nil || !res.Correct
			if pass == "file" {
				if raw, err := os.ReadFile(spanPath); err == nil {
					spans[name] = raw
				}
				os.Remove(spanPath)
			}
		}
	}

	fmt.Fprintf(env.out, "\n== summary, seed %d ==\n", env.seed)
	for _, w := range r.Workloads {
		attempted, bad := w.totals()
		pass := "end-to-end"
		if w.Traced {
			pass = "traced"
		}
		fmt.Fprintf(env.out, "  %-14s %-10s ops_attempted %8d  ops_failed %d  correct %v\n", w.Workload, pass, attempted, bad, w.Correct)
	}
	if out != "" {
		if err := appendRun(out, describeBox(env.seconds, env.quick), r); err != nil {
			fmt.Fprintln(os.Stderr, "darpa-bench:", err)
			return 1
		}
		fmt.Fprintf(env.out, "  appended to %s\n", out)
	}
	if len(spans) > 0 {
		if err := writeJSON(trace, spans); err != nil {
			fmt.Fprintln(os.Stderr, "darpa-bench:", err)
			return 1
		}
		fmt.Fprintf(env.out, "  spans written to %s\n", trace)
	}
	if failed {
		return 1
	}
	return 0
}
