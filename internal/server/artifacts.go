package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"mnoc/internal/runner/artifact"
)

// The artifact-serve surface (Config.ArtifactServe, `mnoc serve
// -artifact-serve`) exposes the runner's content-addressed store over
// HTTP so fleet replicas share one warm cache:
//
//	GET  /artifacts/<key>   200 blob | 404 miss
//	HEAD /artifacts/<key>   200      | 404 miss
//	PUT  /artifacts/<key>   204 stored (body = MART blob)
//
// Keys are the store's hex SHA-256 content keys, so blobs are
// immutable and PUT is idempotent. Every operation goes through the
// runner's instrumented store, so remote traffic shows up in the same
// artifact.* metrics as local cache traffic, and a GET of a corrupt
// on-disk blob takes the established quarantine path (the client just
// sees a 404 and re-solves). PUT bodies are envelope-validated before
// they are stored: a truncated upload must not poison the shared
// cache.

// maxArtifactBytes bounds a PUT body. Paper-scale packet traces are
// the largest artifacts (tens of MB); 256 MB is comfortably above any
// real blob while still refusing a runaway upload.
const maxArtifactBytes = 256 << 20

// maxRequestBytes bounds a /v1/* request body. Every request is a
// handful of short fields (a bench request lists at most every
// experiment id once), so 1 MiB is far above any real body while still
// refusing a runaway upload with a 413.
const maxRequestBytes = 1 << 20

// artifactKeyFromPath extracts and sanity-checks the content key.
func artifactKeyFromPath(path string) (artifact.Key, error) {
	k := strings.TrimPrefix(path, "/artifacts/")
	if k == "" || strings.ContainsAny(k, "/\\") {
		return "", fmt.Errorf("server: malformed artifact path %q", path)
	}
	if len(k) < 4 {
		return "", fmt.Errorf("server: artifact key %q too short", k)
	}
	return artifact.Key(k), nil
}

func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	key, err := artifactKeyFromPath(r.URL.Path)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		blob, ok, err := s.r.Store().Get(key)
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, fmt.Errorf("server: artifact get %s: %w", key, err))
			return
		}
		if !ok {
			s.writeError(w, http.StatusNotFound, fmt.Errorf("server: artifact %s not found", key))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprintf("%d", len(blob)))
		w.WriteHeader(http.StatusOK)
		if r.Method == http.MethodGet {
			_, _ = w.Write(blob)
		}
	case http.MethodPut:
		blob, err := io.ReadAll(io.LimitReader(r.Body, maxArtifactBytes+1))
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("server: reading artifact body: %w", err))
			return
		}
		if len(blob) > maxArtifactBytes {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				errors.New("server: artifact body exceeds size limit"))
			return
		}
		if err := artifact.CheckEnvelope(blob); err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("server: rejecting artifact %s: %w", key, err))
			return
		}
		if err := s.r.Store().Put(key, blob); err != nil {
			s.writeError(w, http.StatusInternalServerError, fmt.Errorf("server: artifact put %s: %w", key, err))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		s.writeError(w, http.StatusMethodNotAllowed,
			fmt.Errorf("server: %s needs GET, HEAD or PUT", r.URL.Path))
	}
}
