// Command benchmark is the repository's performance yardstick: six named
// campaign workloads, end-to-end metrics with regression bounds, and a
// traced run that splits the time by layer. See README.md beside it and
// BENCHMARK.json at the repository root.
//
//	go run ./benchmark                       every workload, end-to-end metrics
//	go run ./benchmark -trace                plus a traced run per workload
//	go run ./benchmark -workload NAME ...    one run; last stdout line is its JSON result
//	go run ./benchmark -compare A.json B.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this one workload and print its result as the last line (default: run them all)")
		seed    = fs.Uint64("seed", 1, "workload seed: every generated campaign spec derives from it")
		seconds = fs.Float64("seconds", defaultSeconds, "length of one run's measured window")
		trace   = fs.Bool("trace", false, "traced run: per-layer metrics from benchmark-side spans (also accepts -trace 0|1)")
		compare = fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
		runs    = fs.Int("runs", 1, "with no -workload: runs per workload, each on its own seed (seed, seed+1, ...)")
		outDir  = fs.String("out", filepath.Join("benchmark", "out"), "directory for result files, span files and temporary stores")
	)
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result-set files")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *name == "" {
		return runAll(ctx, *seed, *seconds, *trace, *runs, *outDir, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	// A measured run keeps to one processor. The host's vCPUs change speed
	// independently of each other, and a goroutine hand-off to an idle vCPU
	// waits for the host to schedule it; on one P every hand-off is a
	// goroutine switch, and the whole process speeds up and slows down with
	// the reference bursts that run on the same P.
	runtime.GOMAXPROCS(1)
	rec, err := runWorkload(ctx, w, runOptions{
		seed: *seed, seconds: *seconds, trace: *trace, sz: fullSizes(), outDir: *outDir,
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printRun(stderr, rec)
	line, err := json.Marshal(rec.resultLine)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

// joinTraceValue lets the boolean -trace flag take its value as a separate
// argument ("--trace 1"), which is how the driver passes it.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// printRun lists a run's metrics by name with their units.
func printRun(w io.Writer, r *runRecord) {
	kind, defs := "end-to-end", endToEnd
	if r.Trace {
		kind, defs = "per-layer", perLayer
	}
	fmt.Fprintf(w, "%s  seed %d  %s  %d ops, %d failed (ops_failed_frac %.4g)\n",
		r.Workload, r.Seed, kind, r.Attempted, r.Failed, r.OpsFailedFrac)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	for _, key := range []string{"report_wall_s", "dedup_wall_s"} {
		if t, ok := r.Timings[key]; ok && t.TailP > 0 {
			fmt.Fprintf(w, "  %-34s %14.6g s  (p%g of %d samples)\n", key+"_tail", t.Tail, t.TailP, t.Samples)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// setRun is one run inside a result set.
type setRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	resultLine
}

// resultSet is what running every workload writes and -compare reads.
type resultSet struct {
	Env     envBlock `json:"env"`
	Seconds float64  `json:"seconds"`
	Runs    []setRun `json:"runs"`
}

// runAll runs every workload in a fresh process of this same binary, so
// each run starts from a cold heap and its CPU time and peak RSS are its
// own, and gathers the result lines into one set.
func runAll(ctx context.Context, seed uint64, seconds float64, trace bool, runs int, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	set := resultSet{Env: readEnv(fullSizes()), Seconds: seconds}
	modes := []bool{false}
	if trace {
		modes = append(modes, true)
	}
	failed := false
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			for _, traced := range modes {
				s := seed + uint64(r)
				cmd := exec.CommandContext(ctx, self,
					"-workload", w.name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds),
					fmt.Sprintf("-trace=%t", traced), "-out", outDir)
				var out bytes.Buffer
				cmd.Stdout = &out
				cmd.Stderr = stdout // the child's metric listing is this command's report
				runErr := cmd.Run()
				line, ok := lastLine(out.Bytes())
				var res resultLine
				if !ok || json.Unmarshal(line, &res) != nil {
					fmt.Fprintf(stderr, "benchmark: %s: no result (%v)\n", w.name, runErr)
					failed = true
					continue
				}
				if runErr != nil || !res.Correct {
					failed = true
				}
				set.Runs = append(set.Runs, setRun{Workload: w.name, Seed: s, Trace: traced, resultLine: res})
			}
		}
	}
	path := filepath.Join(outDir, "results.json")
	if err := writeJSON(path, set); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "result set: %s (%d runs)\n", path, len(set.Runs))
	if failed {
		return 1
	}
	return 0
}

func lastLine(out []byte) ([]byte, bool) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last, last != nil
}

// envBlock records where a result came from.
type envBlock struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Sizes      string `json:"sizes"`
}

func readEnv(sz sizes) envBlock {
	e := envBlock{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Sizes:      fmt.Sprintf("%+v", sz),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}
