package serve

import (
	"context"
	"log/slog"
	"net/http"
	"time"
)

// The access-log/metrics middleware wants three facts the routing layer and
// the error choke points learn mid-request: which route pattern matched,
// which corpus the request resolved to, and which envelope code (if any) was
// written. Threading a Server through every free function would be invasive;
// instead the middleware parks a mutable reqMeta in the request context and
// the choke points fill it in. The meta is written only from the request's
// own goroutine (writeError/writeOverloaded and resolveCorpus all run
// there), and read by the middleware after the handler returns, so no lock
// is needed.
type reqMeta struct {
	corpus  string
	errCode string
	// tenant is the admitted tenant (admitTenant fills it in); the log
	// line carries its name and streamBatch reads its weight for row
	// admission.
	tenant *tenant
}

const reqMetaKey ctxKey = iota + 1 // requestIDKey is 0

func metaFrom(r *http.Request) *reqMeta {
	m, _ := r.Context().Value(reqMetaKey).(*reqMeta)
	return m
}

// noteErrCode records the envelope code written for this request; the last
// writer wins, matching what the client actually received.
func noteErrCode(r *http.Request, code string) {
	if m := metaFrom(r); m != nil {
		m.errCode = code
	}
}

// noteCorpus records which corpus the request resolved to.
func noteCorpus(r *http.Request, name string) {
	if m := metaFrom(r); m != nil {
		m.corpus = name
	}
}

// noteTenant records which tenant the request was admitted as.
func noteTenant(r *http.Request, tn *tenant) {
	if m := metaFrom(r); m != nil {
		m.tenant = tn
	}
}

// statusWriter captures the response status and body size for the access
// log. Unwrap keeps http.ResponseController working through the wrapper
// (the batch streams use EnableFullDuplex and SetWriteDeadline), and Flush
// keeps the direct Flusher assertion in streamBatch working.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps the routed handler with the per-request observability
// spine: it resolves the matched route pattern (bounded-cardinality label;
// unmatched paths collapse to one value rather than exploding the label
// space with raw URLs), installs the reqMeta, captures the status, then
// counts the envelope code and emits exactly one structured access-log line
// — level Info for successes, Warn for client errors, Error for 5xx.
func (s *Server) instrument(mux *http.ServeMux, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := "unmatched"
		if _, pattern := mux.Handler(r); pattern != "" {
			route = pattern
		}
		meta := &reqMeta{}
		r = r.WithContext(context.WithValue(r.Context(), reqMetaKey, meta))
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		d := time.Since(t0)

		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing: net/http sends 200
		}
		if meta.errCode != "" {
			s.errorsTotal.With(meta.errCode).Inc()
		}
		level := slog.LevelInfo
		switch {
		case status >= 500:
			level = slog.LevelError
		case status >= 400:
			level = slog.LevelWarn
		}
		if !s.logger.Enabled(r.Context(), level) {
			return
		}
		attrs := []slog.Attr{
			slog.String("request_id", requestID(r)),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", status),
			slog.Int64("bytes", sw.bytes),
			slog.Float64("duration_ms", float64(d.Microseconds())/1000),
		}
		if meta.corpus != "" {
			attrs = append(attrs, slog.String("corpus", meta.corpus))
		}
		if meta.tenant != nil {
			attrs = append(attrs, slog.String("tenant", meta.tenant.name))
		}
		if meta.errCode != "" {
			attrs = append(attrs, slog.String("code", meta.errCode))
		}
		if r.RemoteAddr != "" {
			attrs = append(attrs, slog.String("remote", r.RemoteAddr))
		}
		s.logger.LogAttrs(r.Context(), level, "request", attrs...)
	})
}
