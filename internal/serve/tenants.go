package serve

import (
	"net/http"

	"mapsynth/internal/qos"
	"mapsynth/pkg/client"
)

// POST /v1/tenants re-applies the -tenants spec grammar without a restart
// — the API-driven half of dynamic quota reload (SIGHUP with
// Options.TenantSource is the operational half). Semantics match boot-time
// configuration exactly: named specs replace those tenants' weight, rate
// and burst; "*" replaces the template; existing tenants the new table
// does not name are re-minted from the new template (or unlimited
// weight-1 when none). Counters and latency history persist across the
// swap, and an empty spec string lifts every limit.

// tenantsRequest is the body of POST /v1/tenants.
type tenantsRequest struct {
	// Tenants is the -tenants flag grammar: comma-separated
	// name[:weight[:rate[:burst]]] entries, "*" naming the template.
	Tenants string `json:"tenants"`
}

// SetTenants atomically re-applies a full tenant spec table. In-flight
// requests finish under the limits they were admitted with; the next
// admission sees the new ones.
func (s *Server) SetTenants(specs []qos.Spec) {
	s.tenants.reconfigure(specs)
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	var req tenantsRequest
	if !s.readBody(w, r, &req) {
		return
	}
	specs, err := qos.ParseSpecs(req.Tenants)
	if err != nil {
		writeError(w, r, client.CodeBadRequest, err.Error())
		return
	}
	s.SetTenants(specs)
	s.logger.Info("tenant specs reloaded", "specs", qos.FormatSpecs(specs), "request_id", requestID(r))
	writeJSON(w, http.StatusOK, map[string]any{
		"reloaded": true,
		"specs":    qos.FormatSpecs(specs),
		"tenants":  len(s.tenants.list()),
	})
}
