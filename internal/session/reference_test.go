package session

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// Recorded reference answers. testdata/reference.txt holds what the
// engine's reference session loop — an unpooled copy of the loop, since
// deleted — returned on each fixed input the equivalence tests drive,
// one line per comparison: a key naming the input, a tab, and the
// answer — "%+v" of the run's Stats, or the SHA-256 and event count of
// a flight-recorder trace. go test -update rewrites the lines from the
// current loop; use it for deliberate re-pins only, like xp's
// -update-golden.
var update = flag.Bool("update", false, "rewrite testdata/reference.txt (deliberate re-pins only)")

const referencePath = "testdata/reference.txt"

// statsAnswer renders a run's outcome as a reference answer. "%+v"
// prints floats in shortest round-trip form and map keys sorted, so two
// answers are equal exactly when the Stats are bit-equal.
func statsAnswer(st *Stats, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%+v", *st)
}

// traceAnswer renders a JSONL flight-recorder trace as a reference
// answer: its SHA-256 and its event (line) count.
func traceAnswer(jsonl string) string {
	return fmt.Sprintf("sha256=%x events=%d", sha256.Sum256([]byte(jsonl)), strings.Count(jsonl, "\n"))
}

// checkReference compares got against the answer recorded under key,
// or, with -update, records got under key.
func checkReference(t *testing.T, key, got string) {
	t.Helper()
	recorded := map[string]string{}
	data, err := os.ReadFile(referencePath)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, "\t"); ok {
			recorded[k] = v
		}
	}
	if *update {
		recorded[key] = got
		keys := make([]string, 0, len(recorded))
		for k := range recorded {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s\t%s\n", k, recorded[k])
		}
		if err := os.WriteFile(referencePath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := recorded[key]
	switch {
	case !ok:
		t.Fatalf("%s: no recorded reference answer (go test -update records one)", key)
	case got != want:
		t.Fatalf("%s: diverges from the recorded reference answer\n got:  %s\n want: %s", key, got, want)
	}
}
