package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strings"
	"sync"
)

// The committed digests of every output the workloads check, one
// "<key> <sha256>" line per output. `--write-expected` regenerates
// them from the current program.
//
//go:embed expected
var expectedFS embed.FS

// expected holds one workload's expected outputs.
type expected struct {
	mu      sync.Mutex
	digests map[string]string
	// golden, when set, is text the workload's output must match byte
	// for byte (the registry tables of testdata/golden/bench_quick.txt).
	golden []byte
	// recording stores digests instead of checking them.
	recording bool
}

func loadExpected(file string) (*expected, error) {
	e := &expected{digests: map[string]string{}}
	blob, err := expectedFS.ReadFile("expected/" + file)
	if errors.Is(err, fs.ErrNotExist) {
		return e, nil
	}
	if err != nil {
		return nil, err
	}
	text := strings.TrimSpace(string(blob))
	if text == "" {
		return e, nil
	}
	for i, line := range strings.Split(text, "\n") {
		key, sum, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("expected/%s:%d: want \"<key> <sha256>\"", file, i+1)
		}
		e.digests[key] = sum
	}
	return e, nil
}

// readGolden returns a bench golden file without its header: the run
// line and the blank line after it, which name the worker count.
func readGolden(path string) ([]byte, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	_, body, ok := bytes.Cut(blob, []byte("\n\n"))
	if !ok {
		return nil, fmt.Errorf("%s: no header line", path)
	}
	return body, nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// check compares out against the expected digest for key and returns
// a description of the mismatch, or "" when it matches.
func (e *expected) check(key string, out []byte) string {
	sum := digest(out)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.recording {
		e.digests[key] = sum
		return ""
	}
	want, ok := e.digests[key]
	switch {
	case !ok:
		return fmt.Sprintf("%s: no expected digest", key)
	case want != sum:
		return fmt.Sprintf("%s: digest %.12s, want %.12s", key, sum, want)
	}
	return ""
}

// checkGolden compares out against the golden text byte for byte.
func (e *expected) checkGolden(name string, out []byte) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.recording && e.golden == nil {
		e.golden = bytes.Clone(out)
	}
	if !bytes.Equal(out, e.golden) {
		return fmt.Sprintf("%s: output differs from the golden tables", name)
	}
	return ""
}

// write stores the digests sorted by key.
func (e *expected) write(path string) error {
	keys := make([]string, 0, len(e.digests))
	for k := range e.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, e.digests[k])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
