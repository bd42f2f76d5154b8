// Serve-path encode/decode benchmarks (srtjson-style tables with
// b.ReportAllocs). BenchmarkWriteJSON is the curated entry `make bench`
// tracks in BENCH_baseline.json; the decode table sizes the
// request-parsing cost across batch widths.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

type encodeBenchCase struct {
	name string
	v    any
}

func encodeBenchCases() []encodeBenchCase {
	return []encodeBenchCase{
		{"solve", &SolveResponse{
			Bench: "water_s", Kind: "dist4", QAP: true,
			BreakdownDTO: BreakdownDTO{SourceUW: 10734.2, OEUW: 1792.04, ElecUW: 412.5},
			TotalWatts:   0.01293874, BaseWatts: 0.04417, Normalized: 0.29293,
		}},
		{"evaluate", &EvaluateResponse{
			Bench: "fft", Policy: "comm4", QAP: true, Scale: 4, LossModel: "worst",
			TotalWatts: 0.021, BaseWatts: 0.044, MNoCCycles: 1284772, RNoCCycles: 3391205,
			Speedup: 2.6395,
		}},
	}
}

// BenchmarkJSONPackageEncoding measures the encoder writeJSON uses —
// the reflective json.Encoder with SetIndent — per response type.
func BenchmarkJSONPackageEncoding(b *testing.B) {
	for _, tc := range encodeBenchCases() {
		b.Run(tc.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				enc := json.NewEncoder(&buf)
				enc.SetIndent("", "  ")
				if err := enc.Encode(tc.v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteJSON measures the whole writeJSON call — header set,
// encode, write — against a discarding ResponseWriter, for a response
// type and a generic map.
func BenchmarkWriteJSON(b *testing.B) {
	cases := []struct {
		name string
		v    any
	}{
		{"evaluate", encodeBenchCases()[1].v},
		{"generic-map", map[string]any{"status": "ok", "detail": "fallback path"}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			w := &discardResponseWriter{h: make(http.Header, 2)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				writeJSON(w, 200, tc.v)
			}
		})
	}
}

type discardResponseWriter struct{ h http.Header }

func (w *discardResponseWriter) Header() http.Header         { return w.h }
func (w *discardResponseWriter) WriteHeader(int)             {}
func (w *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkRequestDecode measures decodePost across request sizes: the
// evaluate request is fixed-width, the bench-list solve request grows
// with the number of requested benchmarks.
func BenchmarkRequestDecode(b *testing.B) {
	evaluate := `{"bench":"fft","policy":"comm4","qap":true,"scale":2.5,"loss_model":"worst"}`
	cases := []struct {
		name string
		body string
		v    func() any
	}{
		{"evaluate", evaluate, func() any { return new(EvaluateRequest) }},
		{"solve", `{"bench":"water_s","kind":"dist4","qap":true}`, func() any { return new(SolveRequest) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(tc.body)))
			for i := 0; i < b.N; i++ {
				req, err := http.NewRequest("POST", "/", strings.NewReader(tc.body))
				if err != nil {
					b.Fatal(err)
				}
				if err := decodeBody(req.Body, tc.v()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// decodeBody mirrors decodePost's decoding discipline (unknown fields
// and trailing data rejected) without the ResponseWriter plumbing —
// method check, body cap, error envelope — so the benchmark isolates
// parse cost.
func decodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("decode: trailing data: %v", err)
	}
	return nil
}
