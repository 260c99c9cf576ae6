package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"p3pdb/internal/obs"
	"p3pdb/internal/registry"
)

// MultiServer fronts a registry of tenant sites with one HTTP listener:
// the hosting-provider form of the server-centric architecture, where a
// single matching service answers for many sites. Requests reach a
// tenant two ways:
//
//   - Path routing: /sites/{name}/... strips the prefix and serves the
//     rest from the per-site API (/sites/a.example/check,
//     /sites/a.example/policies, ...).
//   - Host routing: any other path resolves the Host header (port
//     stripped, case-folded) to a tenant, so pointing a site's DNS at
//     the service just works.
//
// /sites itself is the tenant admin API, and /healthz, /readyz, and
// /metrics answer for the process rather than any one tenant.
//
// It keeps no per-tenant state of its own: each request binds the
// registry's current site and journal (tenant) and is answered through
// the shared siteRoutes, so an evicted or deleted tenant is referenced
// by nothing here once its last request ends.
type MultiServer struct {
	reg  *registry.Registry
	opts Options
	mux  *http.ServeMux
}

// NewMulti wraps a registry with default options.
func NewMulti(reg *registry.Registry) *MultiServer {
	return NewMultiWithOptions(reg, Options{})
}

// NewMultiWithOptions wraps a registry.
func NewMultiWithOptions(reg *registry.Registry, opts Options) *MultiServer {
	obs.PublishExpvar()
	m := &MultiServer{reg: reg, opts: opts, mux: http.NewServeMux()}
	m.mux.HandleFunc("/sites", instrument("sites", m.handleSites))
	m.mux.HandleFunc("/sites/", instrument("site", m.handleSite))
	m.mux.HandleFunc("/replication/status", instrument("replication", m.handleReplication))
	m.mux.Handle("/metrics", obs.Handler(obs.Default))
	m.mux.HandleFunc("/healthz", handleHealthz)
	m.mux.HandleFunc("/readyz", m.handleReadyz)
	m.mux.HandleFunc("/", m.handleByHost)
	return m
}

// ServeHTTP implements http.Handler.
func (m *MultiServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mux.ServeHTTP(w, r)
}

// handleHealthz reports liveness; shared with the single-site server.
func handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports readiness: the process should only receive
// traffic once the registry finished loading.
func (m *MultiServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !m.reg.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not-ready"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// writeTenantError reports a tenant-resolution failure: unknown tenants
// are a JSON 404 with a machine-readable reason, bad names a 400.
func writeTenantError(w http.ResponseWriter, err error) {
	if errors.Is(err, registry.ErrUnknownSite) {
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error(), Reason: "unknown-tenant"})
		return
	}
	writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error(), Reason: "invalid-tenant"})
}

// tenant binds a request to the named tenant: the registry's current
// site and journal, read from one entry, so a reloaded tenant always
// logs to its live journal, never an evicted load's closed one.
func (m *MultiServer) tenant(name string) (*Server, error) {
	site, journal, err := m.reg.GetWithJournal(name)
	if err != nil {
		return nil, err
	}
	opts := m.opts
	opts.Journal = journal
	return &Server{site: site, opts: opts}, nil
}

// handleSites implements the admin listing: GET /sites returns every
// known tenant (resident and on disk).
func (m *MultiServer) handleSites(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	writeJSON(w, http.StatusOK, m.reg.Names())
}

// handleSite dispatches /sites/{name} and /sites/{name}/...:
//
//   - PUT /sites/{name}: create an empty dynamic tenant (populate it
//     through its /policies endpoint).
//   - DELETE /sites/{name}: drop the tenant from the registry.
//   - POST /sites/{name}: re-read the tenant's directory and swap its
//     policy set atomically (the per-tenant face of SIGHUP).
//   - /sites/{name}/...: strip the prefix and serve the rest from the
//     per-site API, bound to the tenant.
func (m *MultiServer) handleSite(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/sites/")
	name, sub, nested := strings.Cut(rest, "/")
	if name == "" {
		writeError(w, http.StatusNotFound, fmt.Errorf("missing site name"))
		return
	}
	if !nested {
		m.handleSiteAdmin(w, r, name)
		return
	}
	srv, err := m.tenant(name)
	if err != nil {
		writeTenantError(w, err)
		return
	}
	r2 := r.Clone(context.WithValue(r.Context(), serverKey{}, srv))
	r2.URL.Path = "/" + sub
	if r.URL.RawPath != "" {
		r2.URL.RawPath = ""
	}
	siteRoutes.ServeHTTP(w, r2)
}

func (m *MultiServer) handleSiteAdmin(w http.ResponseWriter, r *http.Request, name string) {
	var err error
	fail := http.StatusBadRequest // a failure the registry does not type
	switch r.Method {
	case http.MethodPut:
		_, err = m.reg.Create(name)
		fail = http.StatusConflict
	case http.MethodDelete:
		err = m.reg.Remove(name)
	case http.MethodPost:
		err = m.reg.Reload(name)
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	switch {
	case errors.Is(err, registry.ErrReadOnly):
		writeReadOnly(w, m.opts.Leader)
	case errors.Is(err, registry.ErrUnknownSite), err != nil && r.Method == http.MethodDelete:
		writeTenantError(w, err)
	case err != nil:
		writeError(w, fail, err)
	case r.Method == http.MethodPut:
		writeJSON(w, http.StatusCreated, map[string]string{"site": name})
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// handleByHost routes every non-admin path by the request's Host header.
func (m *MultiServer) handleByHost(w http.ResponseWriter, r *http.Request) {
	srv, err := m.tenant(r.Host)
	if err != nil {
		writeTenantError(w, err)
		return
	}
	srv.ServeHTTP(w, r)
}

// HTTPServer wraps the handler in an http.Server with the same timeout
// posture as the single-site server.
func (m *MultiServer) HTTPServer(addr string) *http.Server { return httpServer(addr, m) }
