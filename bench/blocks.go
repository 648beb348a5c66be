package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
)

// blocks is how many passes through the whole life cycle (set-up,
// warm-up, ramp, steady, saturate) make one end-to-end run. Each pass
// gets an equal share of the run's seconds, the same requests and a
// process of its own, so that the passes differ in nothing but when they
// ran. Every end-to-end metric is the better of the passes' values: what
// disturbs the shared machine the benchmark runs on slows it by a fifth
// to a half for 10-40 s at a time and never speeds it up, so the better
// pass is the one nearer the undisturbed machine, and a change in the
// program moves both.
const blocks = 2

// higherIsBetter names the end-to-end metrics of which the better value
// is the higher one; of every other it is the lower
// (TestRunsReportTheSpecifiedMetrics holds this against BENCHMARK.json).
var higherIsBetter = map[string]bool{"slo_ok_ratio": true, "throughput_rps": true}

// runBlocks measures one workload once, end to end: it runs this program
// again for every block, one at a time, and merges what they report. Only
// the last block pays for the correctness checks.
func runBlocks(c runConfig) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.outDir, "blocks-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Pdeathsig below follows the thread that started the block, not the
	// process: stay on it until the blocks have ended.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	var parts []*runResult
	for b := 1; b <= blocks; b++ {
		out := filepath.Join(dir, fmt.Sprintf("block-%d.json", b))
		cmd := exec.Command(exe,
			"--workload", c.wl.name,
			"--seed", strconv.FormatInt(c.seed, 10),
			"--seconds", strconv.FormatFloat(c.seconds/blocks, 'g', -1, 64),
			"--block", strconv.Itoa(b),
			"--out", out)
		cmd.Stderr = os.Stderr
		// The block must not outlive a killed parent.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		runErr := cmd.Run()
		// A block that found an incorrect answer still reports its run.
		var set runSet
		if err := readJSON(out, &set); err != nil {
			return nil, fmt.Errorf("block %d: %w", b, errors.Join(runErr, err))
		}
		if len(set.Runs) != 1 {
			return nil, fmt.Errorf("block %d reported %d runs", b, len(set.Runs))
		}
		parts = append(parts, set.Runs[0])
	}
	return mergeBlocks(parts), nil
}

// mergeBlocks makes one run of its blocks: counts add up, every metric
// is the better of the blocks' values, and each block's own values and
// notes are kept as notes "b<block>.<name>".
func mergeBlocks(parts []*runResult) *runResult {
	res := *parts[0]
	res.Blocks = len(parts)
	res.Phases, res.Metrics, res.Notes = map[string]tally{}, metrics{}, metrics{}
	res.Attempted, res.Failed, res.Overloaded, res.Correct = 0, 0, false, true
	for b, p := range parts {
		for phase, t := range p.Phases {
			sum := res.Phases[phase]
			sum.Sent += t.Sent
			sum.Succeeded += t.Succeeded
			sum.Failed += t.Failed
			sum.Seconds += t.Seconds
			res.Phases[phase] = sum
		}
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		res.Overloaded = res.Overloaded || p.Overloaded
		res.Correct = res.Correct && p.Correct
		for name, m := range p.Metrics {
			best, seen := res.Metrics[name]
			better := m.Value < best.Value
			if higherIsBetter[name] {
				better = m.Value > best.Value
			}
			if !seen || better {
				res.Metrics[name] = m
			}
			res.Notes[fmt.Sprintf("b%d.%s", b+1, name)] = m
		}
		for name, m := range p.Notes {
			res.Notes[fmt.Sprintf("b%d.%s", b+1, name)] = m
		}
	}
	return &res
}
