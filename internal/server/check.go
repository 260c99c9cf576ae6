// The /check endpoint is the paper's deployment scenario (§2) served
// end to end: reference-file lookup picks the applicable policy for a
// URL and/or cookie, the compact-policy summary tries to prove the
// request safe without running an engine, and only an inconclusive
// summary pays for full matching. The response carries the policy's
// compact form in the standard P3P response header, the way a
// compact-policy-aware user agent would receive it.
package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"p3pdb/internal/core"
	"p3pdb/internal/faultkit"
	"p3pdb/internal/workload"
)

// agentLevels maps the load generator's user-agent attitude names onto
// the JRC preference levels (workload.Levels) they correspond to.
var agentLevels = map[string]string{
	"apathetic": "Very Low",
	"mild":      "Low",
	"paranoid":  "High",
}

// resolvePreference turns a level query parameter into a server-side
// preference: either an agent attitude (apathetic, mild, paranoid) or a
// JRC level name (Very Low ... Very High), case-insensitively.
func resolvePreference(level string) (workload.Preference, bool) {
	if jrc, ok := agentLevels[strings.ToLower(level)]; ok {
		level = jrc
	}
	for _, l := range workload.Levels {
		if strings.EqualFold(l, level) {
			return workload.PreferenceByLevel(l)
		}
	}
	return workload.Preference{}, false
}

// CheckPartResponse is one half of a check (the URL or the cookie).
type CheckPartResponse struct {
	Target         string         `json:"target"`
	Allowed        bool           `json:"allowed"`
	FastPath       bool           `json:"fastPath"`
	FallbackReason string         `json:"fallbackReason,omitempty"`
	PolicyName     string         `json:"policyName"`
	CP             string         `json:"cp,omitempty"`
	Decision       *MatchResponse `json:"decision,omitempty"`
}

// CheckResponse is the JSON form of a protocol-loop check. Allowed is
// the conjunction of the parts: a visit is safe only if both the page
// and its cookie traffic are.
type CheckResponse struct {
	Allowed    bool               `json:"allowed"`
	Generation uint64             `json:"generation"`
	Level      string             `json:"level,omitempty"`
	URL        *CheckPartResponse `json:"url,omitempty"`
	Cookie     *CheckPartResponse `json:"cookie,omitempty"`
}

func toCheckPart(target string, res core.CheckResult) *CheckPartResponse {
	p := &CheckPartResponse{
		Target:         target,
		Allowed:        res.Allowed,
		FastPath:       res.FastPath,
		FallbackReason: res.FallbackReason,
		PolicyName:     res.PolicyName,
		CP:             res.CP,
	}
	if res.Decision != nil {
		d := toResponse(*res.Decision)
		p.Decision = &d
	}
	return p
}

// handleCheck implements the protocol-loop endpoint:
//
//	GET  /check?url=/path&cookie=name&level=mild&engine=sql
//	POST /check?url=/path&cookie=name&engine=sql   (APPEL body)
//
// At least one of url/cookie is required. GET resolves the preference
// from a named level (an agent attitude or a JRC profile); POST takes
// the visitor's own APPEL preference as the body. The applicable
// policy's compact form rides back in the P3P response header.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	url, cookie := q.Get("url"), q.Get("cookie")
	if url == "" && cookie == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing url or cookie parameter"))
		return
	}
	s.serveMatch(w, r, q, faultkit.PointServerMatch, true, func(ctx context.Context, in matchInput) {
		resp := CheckResponse{Allowed: true, Level: in.level}
		check := func(target string, run func(context.Context, string, string, core.Engine) (core.CheckResult, error)) (*CheckPartResponse, bool) {
			res, err := run(ctx, in.pref, target, in.engine)
			if err != nil {
				writeMatchError(w, r, err)
				return nil, false
			}
			resp.Allowed = resp.Allowed && res.Allowed
			resp.Generation = res.Generation
			if res.CP != "" && w.Header().Get("P3P") == "" {
				w.Header().Set("P3P", fmt.Sprintf("CP=%q", res.CP))
			}
			return toCheckPart(target, res), true
		}
		if url != "" {
			part, ok := check(url, s.site.CheckURICtx)
			if !ok {
				return
			}
			resp.URL = part
		}
		if cookie != "" {
			part, ok := check(cookie, s.site.CheckCookieCtx)
			if !ok {
				return
			}
			resp.Cookie = part
		}
		writeJSON(w, http.StatusOK, resp)
	})
}
