package main

import (
	"io"
	"testing"
)

// TestCorruptAnswerFailsRun feeds one corrupted answer to the output
// check of each workload and asserts that the run is reported incorrect,
// while the same short run without corruption passes.
func TestCorruptAnswerFailsRun(t *testing.T) {
	for _, w := range workloads {
		for _, corrupt := range []bool{false, true} {
			res, err := run(config{workload: w, seed: 7, seconds: 0.5, setups: 1, corrupt: corrupt}, io.Discard)
			if err != nil {
				t.Fatalf("%s corrupt=%v: %v", w.name, corrupt, err)
			}
			if res.Correct == corrupt {
				t.Errorf("%s corrupt=%v: correct=%v", w.name, corrupt, res.Correct)
			}
			if corrupt && res.Failed == 0 {
				t.Errorf("%s: a failed check must count as a failed op", w.name)
			}
		}
	}
}
