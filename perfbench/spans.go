package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mnoc/internal/telemetry"
)

// span is one recorded interval around a call into the program. Spans
// of one pass, run or request round share a root; Parent links each
// to the span that caused it. Program spans (from Runner.Tracer) carry
// Source "program"; those with Parent < 0 are written out but left
// out of the self-time table, since they nest inside the benchmark's
// own spans on an unknown goroutine.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Attr   string        `json:"attr,omitempty"`
	Source string        `json:"source,omitempty"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced rounds pay only the clock reads the
// timing itself needs.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// active is an open span. Its zero parent means a root.
type active struct {
	r      *recorder
	id     int64
	parent int64
	name   string
	attr   string
	begin  time.Time
}

func (r *recorder) start(parent int64, name, attr string) active {
	a := active{r: r, parent: parent, name: name, attr: attr, begin: time.Now()}
	if r != nil {
		a.id = r.ids.Add(1)
	}
	return a
}

// end records the span (when traced) and returns its duration.
func (a active) end() time.Duration {
	d := time.Since(a.begin)
	if a.r != nil {
		a.r.add(span{ID: a.id, Parent: a.parent, Name: a.name, Attr: a.attr,
			Start: a.begin.Sub(a.r.epoch), Dur: d})
	}
	return d
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	if s.ID == 0 {
		s.ID = r.ids.Add(1)
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// addProgram imports spans from the program's tracer, whose epoch is
// at offset epoch in the recorder's clock. Spans for which parentOf
// returns a parent join the self-time table; the rest are kept for the
// spans file only.
func (r *recorder) addProgram(tr *telemetry.Tracer, epoch time.Duration, parentOf func(telemetry.Span) int64) {
	if r == nil {
		return
	}
	for _, s := range tr.Spans() {
		r.add(span{Parent: parentOf(s), Name: s.Name, Source: "program",
			Start: epoch + time.Duration(s.StartUS)*time.Microsecond,
			Dur:   time.Duration(s.DurUS) * time.Microsecond})
	}
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name  string
	Self  time.Duration
	Count int
}

// selfTimes returns each attached span's self time: its duration minus
// the part of its interval its child spans cover.
func selfTimes(spans []span) map[int64]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := map[int64][]iv{}
	for _, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.Start + s.Dur})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		lo, hi := s.Start, s.Start+s.Dur
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		var covered time.Duration
		at := lo
		for _, c := range cs {
			a, b := max(c.lo, at), min(c.hi, hi)
			if b > a {
				covered += b - a
				at = b
			}
		}
		self[s.ID] = s.Dur - covered
	}
	return self
}

// layerTable groups self times by span name.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		d, ok := self[s.ID]
		if !ok {
			continue
		}
		row := rows[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			rows[s.Name] = row
		}
		row.Self += d
		row.Count++
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// rowByName indexes a layer table.
func rowByName(rows []layerRow) map[string]layerRow {
	m := make(map[string]layerRow, len(rows))
	for _, r := range rows {
		m[r.Name] = r
	}
	return m
}

// printLayerTable prints self time, count and share of the traced
// rounds' wall time per layer. Layers that ran on concurrent workers
// or clients can together exceed a share of 1.
func printLayerTable(w io.Writer, rows []layerRow, wall time.Duration) {
	fmt.Fprintf(w, "per-layer self time over %.3f s of traced rounds:\n", wall.Seconds())
	fmt.Fprintf(w, "  %-28s %12s %9s %8s\n", "layer", "self_ms", "count", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %12.3f %9d %8.4f\n", r.Name, ms(r.Self), r.Count, r.Self.Seconds()/wall.Seconds())
	}
}

// spansPerName caps how many spans of one name the spans file keeps:
// a serve-warm run records hundreds of thousands of request spans, all
// of which feed the table, but a sample of each is enough to inspect.
const spansPerName = 2000

// writeSpans writes spans as JSON Lines, up to spansPerName of each
// name.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	written := map[string]int{}
	for _, s := range spans {
		if written[s.Name]++; written[s.Name] > spansPerName {
			continue
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
