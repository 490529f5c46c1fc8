// Command shardstress repeats the sharded-mode equivalence tests
// (TestExecModeSortContentionEquivalence and
// TestExecModeShardedTaskEquivalence) to measure how often a parallel
// run diverges from the event-mode output or hangs. It builds the
// repo-root test binary once, runs the two tests -n times, each under a
// per-run timeout, classifies every run and prints the counts:
//
//	go run ./scripts/shardstress              # or: make shard-stress
//	go run ./scripts/shardstress -n 500
//
// A run passes, diverges (a mode's output differed from event mode),
// hangs (the test binary's own -test.timeout fired, or the run had to be
// killed) or fails some other way. Each non-passing run's output — for a
// hang, the goroutine dump — is written to stderr. The command exits 1
// when any run did not pass.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// tests are the repo-root sharded equivalence tests the command repeats.
const tests = "^(TestExecModeSortContentionEquivalence|TestExecModeShardedTaskEquivalence)$"

// timeout bounds one run; a passing run takes a few seconds.
const timeout = 60 * time.Second

func main() {
	n := flag.Int("n", 200, "number of runs")
	flag.Parse()
	failed, err := stress(*n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardstress:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// stress builds the test binary into a temporary directory, runs it n
// times, prints the counts and reports whether any run did not pass.
func stress(n int) (bool, error) {
	dir, err := os.MkdirTemp("", "shardstress")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "repro.test")
	build := exec.Command("go", "test", "-c", "-o", bin, ".")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return false, fmt.Errorf("building the test binary: %v", err)
	}

	counts := map[string]int{}
	for i := 1; i <= n; i++ {
		class, out := once(bin)
		counts[class]++
		if class != "pass" {
			fmt.Fprintf(os.Stderr, "run %d: %s\n%s\n", i, class, out)
		}
	}
	fmt.Printf("shardstress: runs=%d pass=%d diverge=%d hang=%d other=%d\n",
		n, counts["pass"], counts["diverge"], counts["hang"], counts["other"])
	return counts["pass"] != n, nil
}

// once runs the test binary one time and classifies the outcome. The
// binary's own -test.timeout fires first and dumps every goroutine; the
// outer deadline is a backstop for a binary too wedged to do even that.
func once(bin string) (string, []byte) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout+30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-test.run="+tests, "-test.count=1",
		"-test.timeout="+timeout.String())
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	s := out.String()
	switch {
	case err == nil:
		return "pass", out.Bytes()
	case errors.Is(ctx.Err(), context.DeadlineExceeded), strings.Contains(s, "panic: test timed out"):
		return "hang", out.Bytes()
	case strings.Contains(s, "output differs from event-mode output"):
		return "diverge", out.Bytes()
	default:
		return "other", out.Bytes()
	}
}
