// Command voxload is the repository's benchmark (BENCHMARK.json names it):
// it builds one CAD-part corpus from a seed, starts a real voxserve child
// process per workload, drives it over loopback from two closed-loop
// keep-alive connections, checks the answers against a brute-force oracle,
// and prints every metric by name with its unit.
//
//	bash bench/run.sh --workload knn-exact --seed 1 --seconds 24 --trace 0   # one run, the driver's form
//	bash bench/run.sh -seed 1                  # all four workloads, full JSON document
//	bash bench/run.sh -seed 1 -trace 1         # per-layer ladder trace and diagnostic loops
//	bash bench/run.sh -repeat 5                # spread of every gated metric against its bound
//	bash bench/run.sh -compare a.json b.json   # two documents, one row per workload × metric
//
// bench/README.md explains the workloads, the metrics and the layers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// document is what an invocation that runs more than one workload prints,
// and what every invocation writes to bench/out/.
type document struct {
	Schema  string       `json:"schema"`
	Env     environment  `json:"env"`
	Runs    []*runResult `json:"runs"`
	Summary []summaryRow `json:"summary,omitempty"` // -repeat only
}

type environment struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Connections int     `json:"connections"`
	Fsync       string  `json:"fsync"`
	Smoke       bool    `json:"smoke,omitempty"`
	Started     string  `json:"started"`
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	repeat   int
	compare  bool
	smoke    bool
	voxserve string
	args     []string // -compare: the two documents
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "all", "workload to run: knn-exact | sharded-cached | write-mix | mesh-upload | all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the corpus generator and the request lists")
	flag.Float64Var(&o.seconds, "seconds", 24, "length of the timed closed-loop window")
	flag.IntVar(&trace, "trace", 0, "1: report the per-layer metrics (ladder trace, diagnostic open loop) instead of the end-to-end ones")
	flag.IntVar(&o.repeat, "repeat", 0, "run N full sets (seeds seed … seed+N-1) and check every gated metric's spread against its BENCHMARK.json bound")
	flag.BoolVar(&o.compare, "compare", false, "compare two result documents: voxload -compare a.json b.json")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny corpus, for the harness's own test")
	flag.StringVar(&o.voxserve, "voxserve", "", "voxserve binary to run (default: build ./cmd/voxserve into bench/out)")
	flag.Parse()
	o.trace, o.args = trace != 0, flag.Args()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "voxload:", err)
		os.Exit(1)
	}
}

// repoRoot walks up from the working directory to the directory holding
// BENCHMARK.json, so the command works from the root and from bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func run(o options) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if o.compare {
		if len(o.args) != 2 {
			return fmt.Errorf("-compare takes two result documents")
		}
		return compareDocs(root, o.args[0], o.args[1])
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	// A signal stops the children and removes the scratch directories
	// before the harness exits; error returns get there through defers.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		if dirs, err := filepath.Glob(filepath.Join(outDir, "scratch-*")); err == nil {
			for _, d := range dirs {
				os.RemoveAll(d)
			}
		}
		os.Exit(1)
	}()
	defer killAllChildren()

	voxserve := o.voxserve
	if voxserve == "" {
		voxserve, err = buildVoxserve(root, outDir)
	} else {
		voxserve, err = filepath.Abs(voxserve)
	}
	if err != nil {
		return err
	}

	var selected []*workload
	if o.workload == "all" {
		selected = workloads
	} else if wl := findWorkload(o.workload); wl != nil {
		selected = []*workload{wl}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	sz := fullSizes
	if o.smoke {
		sz = smokeSizes
	}
	doc := &document{Schema: "voxload/1", Env: environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(root), Seed: o.seed, Seconds: o.seconds, Connections: conns,
		Fsync:   "on (voxserve default: every acknowledged mutation is fsynced to its shard WAL)",
		Smoke:   o.smoke,
		Started: time.Now().UTC().Format(time.RFC3339),
	}}

	sets := 1
	if o.repeat > 0 {
		sets = o.repeat
	}
	for set := 0; set < sets; set++ {
		for _, wl := range selected {
			cfg := runConfig{wl: wl, seed: o.seed + int64(set), seconds: o.seconds, trace: o.trace,
				sz: sz, voxserve: voxserve, outDir: outDir}
			fmt.Fprintf(os.Stderr, "voxload: %s seed %d (%gs, trace %v)\n", wl.name, cfg.seed, o.seconds, o.trace)
			res, err := runWorkload(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			for _, m := range res.Detail.Mismatches {
				fmt.Fprintf(os.Stderr, "voxload: %s: MISMATCH %s\n", wl.name, m)
			}
			for _, f := range res.Detail.Failures {
				fmt.Fprintf(os.Stderr, "voxload: %s: FAILED %s\n", wl.name, f)
			}
			doc.Runs = append(doc.Runs, res)
		}
	}

	kind := "run"
	var spreadErr error
	if o.repeat > 0 {
		kind = "repeat"
		bm, err := loadBenchmark(root)
		if err != nil {
			return err
		}
		doc.Summary, spreadErr = summarizeRepeat(doc.Runs, bm)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	file := filepath.Join(outDir, fmt.Sprintf("%s-%s.json", kind, time.Now().UTC().Format("20060102T150405.000")))
	if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "voxload: wrote", file)

	switch {
	case o.repeat > 0:
		printSummary(os.Stdout, doc.Summary)
	case len(doc.Runs) == 1:
		// One workload: the driver's contract — the last line of stdout
		// is one JSON object with exactly these keys.
		r := doc.Runs[0]
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	default:
		fmt.Println(string(data))
	}

	for _, r := range doc.Runs {
		if !r.Correct || r.Failed > 0 {
			return fmt.Errorf("%s (seed %d): %d of %d operations failed (oracle or durability mismatches: %d)",
				r.Workload, r.Seed, r.Failed, r.Attempted, len(r.Detail.Mismatches))
		}
	}
	return spreadErr
}

// buildVoxserve compiles the program under test from the checkout's source.
func buildVoxserve(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "voxserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/voxserve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building voxserve: %v\n%s", err, out)
	}
	return bin, nil
}

// commit names the checkout, when it is a git repository.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
