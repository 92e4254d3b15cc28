package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mapsynth/internal/snapshot"
	"mapsynth/pkg/client"
)

// The /v1/corpora surface is the lifecycle API of multi-corpus serving:
//
//	GET    /v1/corpora                  list every corpus with version metadata
//	GET    /v1/corpora/{name}           one corpus's metadata
//	PUT    /v1/corpora/{name}           load-or-replace from a snapshot path
//	                                    (JSON {"snapshot": path}) or an
//	                                    uploaded snapshot body (octet-stream)
//	DELETE /v1/corpora/{name}           remove (the default corpus is protected)
//	POST   /v1/corpora/{name}/activate  make a historical version live again
//	POST   /v1/corpora/{name}/rollback  re-activate the previously live version
//
// plus the corpus-scoped query endpoints mounted in Handler. Every
// successful load mints a new monotonically increasing version; superseded
// states stay on a bounded per-corpus ring so activate/rollback can
// restore them exactly — same mapping set, same index, same cache.

// infoFor is one corpus's metadata in list and single-resource answers.
func (s *Server) infoFor(c *corpus) client.CorpusInfo {
	st := c.state.Load()
	return client.CorpusInfo{
		Name:              c.name,
		Version:           st.Version,
		Snapshot:          st.Path,
		Format:            wireFormat,
		Mappings:          st.NumMappings(),
		Pairs:             st.handle.Pairs(),
		MappedBytes:       st.MappedBytes(),
		Madvise:           st.Madvise,
		ActivationSeconds: st.ActivationSeconds,
		LoadedAt:          st.LoadedAt.UTC().Format(time.RFC3339),
		Reloads:           c.reloads.Load(),
		History:           c.historyVersions(),
		SnapshotCRC:       fmt.Sprintf("%08x", st.imageCRC()),
		Ingest:            s.ingestStatusFor(c.name),
	}
}

func (s *Server) handleCorporaList(w http.ResponseWriter, r *http.Request) {
	cs := s.reg.list()
	infos := make([]client.CorpusInfo, len(cs))
	for i, c := range cs {
		infos[i] = s.infoFor(c)
	}
	writeJSON(w, http.StatusOK, client.CorpusList{Corpora: infos, Count: len(infos)})
}

// handleCorpusResource dispatches /v1/corpora/{name} by method: GET
// metadata, PUT load-or-replace, DELETE remove.
func (s *Server) handleCorpusResource(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	switch r.Method {
	case http.MethodGet:
		c, ok := s.resolveCorpus(w, r, name)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, s.infoFor(c))
	case http.MethodPut:
		s.handleCorpusPut(w, r, name)
	case http.MethodDelete:
		s.handleCorpusDelete(w, r, name)
	default:
		writeError(w, r, client.CodeMethodNotAllowed, "GET, PUT or DELETE required")
	}
}

// handleCorpusPut loads-or-replaces one corpus. Two body forms are
// accepted: a JSON object naming a server-side snapshot path, or the raw
// bytes of a snapshot file (Content-Type application/octet-stream) for
// clients that cannot place files on the server's filesystem.
func (s *Server) handleCorpusPut(w http.ResponseWriter, r *http.Request, name string) {
	if !validCorpusName(name) {
		writeError(w, r, client.CodeBadRequest,
			fmt.Sprintf("invalid corpus name %q (want 1-64 chars of [A-Za-z0-9._-])", name))
		return
	}
	t0 := time.Now()
	body := bufio.NewReader(http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes))
	var st *State
	var err error
	if isSnapshotUpload(r, body) {
		var data []byte
		data, err = io.ReadAll(body)
		if err != nil {
			if s.writeUploadTooLarge(w, r, err) {
				return
			}
			writeError(w, r, client.CodeBadRequest, "reading snapshot body: "+err.Error())
			return
		}
		st, err = s.LoadCorpusSnapshot(name, data)
	} else {
		var req client.PutCorpusRequest
		if _, perr := body.Peek(1); perr == nil { // non-empty body
			dec := json.NewDecoder(body)
			dec.DisallowUnknownFields()
			if derr := dec.Decode(&req); derr != nil {
				if s.writeUploadTooLarge(w, r, derr) {
					return
				}
				writeError(w, r, client.CodeBadRequest, "bad request body: "+derr.Error())
				return
			}
		}
		st, err = s.LoadCorpusContext(r.Context(), name, req.Snapshot)
	}
	if err != nil {
		writeError(w, r, client.CodeUnprocessable, "corpus load failed: "+err.Error())
		return
	}
	// Version 1 means this install created the corpus — derived from the
	// serialized install itself, so concurrent first PUTs cannot both
	// claim the creation.
	created := st.Version == 1
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, client.PutCorpusResponse{
		Corpus:     name,
		Created:    created,
		DurationMs: float64(time.Since(t0).Microseconds()) / 1000,
		Format:     wireFormat,
		LoadedAt:   st.LoadedAt.UTC().Format(time.RFC3339),
		Mappings:   st.NumMappings(),
		Pairs:      st.handle.Pairs(),
		Snapshot:   st.Path,
		Version:    st.Version,
	})
}

// isSnapshotUpload distinguishes the two PUT body forms. Explicit
// Content-Types win (json → path form, octet-stream → upload); for
// anything else — curl's form-urlencoded default included — the body
// decides: only a body opening with the snapshot magic is an upload, so a
// JSON body (leading whitespace included) falls through to the path form
// and gets a proper JSON parse error when malformed.
func isSnapshotUpload(r *http.Request, body *bufio.Reader) bool {
	ct := r.Header.Get("Content-Type")
	if strings.Contains(ct, "json") {
		return false
	}
	if strings.Contains(ct, "octet-stream") {
		return true
	}
	b, err := body.Peek(len(snapshot.Magic))
	return err == nil && [4]byte(b) == snapshot.Magic
}

// writeUploadTooLarge recognizes the MaxBytesReader trip inside a body-read
// error and answers the structured 413; it reports whether it handled the
// error. Keeping the check in one place guarantees both PUT body forms
// (upload and JSON path) speak the identical payload_too_large envelope.
func (s *Server) writeUploadTooLarge(w http.ResponseWriter, r *http.Request, err error) bool {
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		return false
	}
	writeError(w, r, client.CodePayloadTooLarge,
		fmt.Sprintf("request body exceeds %d bytes (-max-upload-bytes)", mbe.Limit))
	return true
}

// handleCorpusSnapshot serves GET /v1/corpora/{name}/snapshot: the live
// state's exact v2 snapshot bytes, the wire format of snapshot-shipped
// replication. Every state is a v2 image, so the response streams it
// zero-copy and any node can act as a roll source. The X-Corpus-Version
// header carries the source version for the replicator's convergence check.
// Query parameters are ignored: every answer is the full image.
func (s *Server) handleCorpusSnapshot(c *corpus, w http.ResponseWriter, r *http.Request) {
	st := c.state.Load()
	data := st.handle.Bytes()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set("X-Corpus-Version", strconv.FormatInt(st.Version, 10))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		_, _ = w.Write(data)
	}
}

func (s *Server) handleCorpusDelete(w http.ResponseWriter, r *http.Request, name string) {
	if name == DefaultCorpus {
		writeError(w, r, client.CodeBadRequest, fmt.Sprintf("the %q corpus cannot be deleted", DefaultCorpus))
		return
	}
	if s.reg.remove(name) == nil {
		writeError(w, r, client.CodeCorpusNotFound, fmt.Sprintf("no such corpus: %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"corpus": name, "deleted": true})
}

// activateRequest is the body of POST /v1/corpora/{name}/activate.
type activateRequest struct {
	Version int64 `json:"version"`
}

// handleActivate makes a specific historical version the live state again.
// The displaced live state goes onto the history ring, so activations are
// always reversible with /rollback.
func (s *Server) handleActivate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, client.CodeMethodNotAllowed, "POST required")
		return
	}
	c, ok := s.resolveCorpus(w, r, r.PathValue("name"))
	if !ok {
		return
	}
	var req activateRequest
	if !s.readBody(w, r, &req) {
		return
	}
	if req.Version < 1 {
		writeError(w, r, client.CodeBadRequest, fmt.Sprintf("version must be >= 1, got %d", req.Version))
		return
	}
	live, prev, err := c.activate(req.Version)
	if err != nil {
		writeError(w, r, client.CodeUnprocessable, "activate failed: "+err.Error())
		return
	}
	writeVersionSwap(w, c, live, prev)
}

// handleRollback re-activates the most recently displaced state — the
// one-call undo of the last load or activate.
func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, client.CodeMethodNotAllowed, "POST required")
		return
	}
	c, ok := s.resolveCorpus(w, r, r.PathValue("name"))
	if !ok {
		return
	}
	live, prev, err := c.rollback()
	if err != nil {
		writeError(w, r, client.CodeUnprocessable, "rollback failed: "+err.Error())
		return
	}
	writeVersionSwap(w, c, live, prev)
}

func writeVersionSwap(w http.ResponseWriter, c *corpus, live, prev *State) {
	writeJSON(w, http.StatusOK, client.VersionSwapResponse{
		Corpus:          c.name,
		Format:          wireFormat,
		LoadedAt:        live.LoadedAt.UTC().Format(time.RFC3339),
		Mappings:        live.NumMappings(),
		PreviousVersion: prev.Version,
		Snapshot:        live.Path,
		Version:         live.Version,
	})
}
