package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Accumulator gathers per-replication metric vectors from concurrent
// workers into fixed (point, replication) slots. Because every
// observation lands in its slot rather than in arrival order, the
// Samples built from an Accumulator are bit-identical whether the
// replications ran sequentially or across any number of goroutines
// (float addition is not associative, so arrival-order aggregation
// would not be).
type Accumulator struct {
	mu    sync.Mutex
	reps  int
	cells [][][]float64 // point -> replication -> metric vector
}

// NewAccumulator sizes an accumulator for points x reps replications.
func NewAccumulator(points, reps int) *Accumulator {
	cells := make([][][]float64, points)
	for i := range cells {
		cells[i] = make([][]float64, reps)
	}
	return &Accumulator{reps: reps, cells: cells}
}

// Put stores the metric vector of one replication. It is safe to call
// from concurrent workers; each (point, rep) slot must be written at
// most once. Put retains vec — the caller hands over ownership, so a
// pooled or per-replication scratch buffer must never be passed here
// (every experiment body returns a fresh literal). Point builds its
// Samples by copying element-wise, so results read out of the
// accumulator are immune to later mutation of the stored vectors.
func (a *Accumulator) Put(point, rep int, vec []float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cells[point][rep] = vec
}

// Get returns the metric vector stored for one replication (nil if the
// replication never reported).
func (a *Accumulator) Get(point, rep int) []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cells[point][rep]
}

// Point merges the replications of one sweep point column-wise: sample
// k collects element k of every stored vector, in replication order.
// NaN elements mark "no observation" and are skipped, so optional
// metrics (for example time-to-first-failure when nothing failed) keep
// clean means.
func (a *Accumulator) Point(point int) []*Sample {
	a.mu.Lock()
	defer a.mu.Unlock()
	width := 0
	for _, vec := range a.cells[point] {
		if len(vec) > width {
			width = len(vec)
		}
	}
	out := make([]*Sample, width)
	for k := range out {
		out[k] = &Sample{}
	}
	for _, vec := range a.cells[point] {
		for k, x := range vec {
			if !math.IsNaN(x) {
				out[k].Add(x)
			}
		}
	}
	return out
}

// tableJSON is the wire form of Table.
type tableJSON struct {
	Title string     `json:"title,omitempty"`
	Cols  []string   `json:"cols"`
	Rows  [][]string `json:"rows"`
	Notes []string   `json:"notes,omitempty"`
}

// MarshalJSON encodes the table as {title, cols, rows, notes}.
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := t.Rows
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(tableJSON{Title: t.Title, Cols: t.Cols, Rows: rows, Notes: t.Notes})
}

// UnmarshalJSON decodes the MarshalJSON form.
func (t *Table) UnmarshalJSON(b []byte) error {
	var w tableJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	t.Title, t.Cols, t.Rows, t.Notes = w.Title, w.Cols, w.Rows, w.Notes
	return nil
}

// ExperimentResult is one experiment's entry in a Results document.
type ExperimentResult struct {
	ID          string  `json:"id"`
	Title       string  `json:"title"`
	Claim       string  `json:"claim,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	Table       *Table  `json:"table,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// Results is the machine-readable document a whole suite run exports:
// run metadata, the caller's configuration, and one entry per
// experiment. cmd/qosbench -json writes one of these.
type Results struct {
	Tool        string             `json:"tool"`
	Describe    string             `json:"describe"`
	GoVersion   string             `json:"go_version"`
	OS          string             `json:"os"`
	Arch        string             `json:"arch"`
	NumCPU      int                `json:"num_cpu"`
	Started     string             `json:"started"`
	WallSeconds float64            `json:"wall_seconds"`
	Config      map[string]any     `json:"config,omitempty"`
	Experiments []ExperimentResult `json:"experiments"`
}

// NewResults stamps a results document with the runtime environment.
func NewResults(tool string, config map[string]any) *Results {
	return &Results{
		Tool:        tool,
		Describe:    Describe(),
		GoVersion:   runtime.Version(),
		OS:          runtime.GOOS,
		Arch:        runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Started:     time.Now().UTC().Format(time.RFC3339),
		Config:      config,
		Experiments: []ExperimentResult{},
	}
}

// Add appends one experiment's outcome.
func (r *Results) Add(id, title, claim string, wall time.Duration, table *Table, err error) {
	e := ExperimentResult{ID: id, Title: title, Claim: claim,
		WallSeconds: wall.Seconds(), Table: table}
	if err != nil {
		e.Error = err.Error()
	}
	r.Experiments = append(r.Experiments, e)
}

// WriteFile marshals the document (indented) to path; "-" means stdout.
func (r *Results) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Describe returns a git-describe-style identifier of the running
// binary built from the embedded VCS build info ("3f2a1bc" or
// "3f2a1bc-dirty"), or "unknown" outside a VCS build.
func Describe() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if modified {
		return fmt.Sprintf("%s-dirty", rev)
	}
	return rev
}
